//! Command-line helpers shared by the crate's binaries and
//! [`crate::worker::worker_main`].

/// The value of the flag at `args[*i]`, advancing `i` past it; exits
/// with status 2 when it is missing.
pub fn take(args: &[String], i: &mut usize, what: &str) -> String {
    *i += 1;
    args.get(*i).cloned().unwrap_or_else(|| {
        eprintln!("missing value for {what}");
        std::process::exit(2);
    })
}

/// The `Ok` value; otherwise prints `context: error` and exits with
/// status 1.
pub fn or_exit<T, E: std::fmt::Display>(result: Result<T, E>, context: &str) -> T {
    result.unwrap_or_else(|e| {
        eprintln!("{context}: {e}");
        std::process::exit(1);
    })
}

/// Parses a flag value; exits with status 2 when it does not parse.
pub fn parse<T: std::str::FromStr>(v: &str, what: &str) -> T {
    v.parse().unwrap_or_else(|_| {
        eprintln!("bad value `{v}` for {what}");
        std::process::exit(2);
    })
}
