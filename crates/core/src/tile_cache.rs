//! A bounded, shareable store of [`TilingSession`]s.
//!
//! A [`Router`](crate::router::Router) tiles through one of these. By
//! default each router and each [`Supervisor`](crate::supervisor::Supervisor)
//! job gets a private cache that dies with it. A serving executor
//! instead keeps one cache for its whole lifetime and hands it to every
//! job ([`Supervisor::with_tile_cache`](crate::supervisor::Supervisor::with_tile_cache)),
//! so a board seen again skips tiling.
//!
//! Sessions are keyed by board fingerprint, net, layer and tile options.
//! The key only decides which session a request starts from: the
//! session diffs the request's spec against its own state
//! ([`TilingSession::update_to`]), so the graph it hands out is the
//! from-scratch graph whatever the key matched. At most
//! [`TILE_CACHE_CAP`] sessions are kept; the least recently used one is
//! dropped to make room.

use crate::tile::TileOptions;
use crate::tile_session::{TileSessionStats, TilingSession};
use sprout_board::NetId;
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard};

/// Most sessions a [`TileSessionCache`] keeps. A board takes one per
/// routed `(net, layer)`, so a `two_rail` board takes two and the cap
/// holds a working set of a dozen or more boards.
pub const TILE_CACHE_CAP: usize = 32;

/// Which session a tiling request draws from. Pitches are keyed by
/// their bit patterns so distinct configurations never alias.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct TileKey {
    board: u64,
    net: usize,
    layer: usize,
    dx: u64,
    dy: u64,
    min_cell_fraction: u64,
}

impl TileKey {
    pub(crate) fn new(board: u64, net: NetId, layer: usize, opts: TileOptions) -> TileKey {
        TileKey {
            board,
            net: net.0,
            layer,
            dx: opts.dx.to_bits(),
            dy: opts.dy.to_bits(),
            min_cell_fraction: opts.min_cell_fraction.to_bits(),
        }
    }
}

#[derive(Default)]
struct Entries {
    /// Each session with the tick of its last check-in.
    sessions: HashMap<TileKey, (TilingSession, u64)>,
    tick: u64,
}

/// A bounded LRU store of tiling sessions. Clones share one store.
///
/// A session is checked out while a route uses it and checked back in
/// afterwards, so two routes never share a session. A second route for
/// a key that is checked out builds its own session; whichever is
/// checked in last stays.
#[derive(Clone, Default)]
pub struct TileSessionCache {
    entries: Arc<Mutex<Entries>>,
}

impl fmt::Debug for TileSessionCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TileSessionCache")
            .field("sessions", &self.len())
            .finish()
    }
}

impl TileSessionCache {
    /// An empty cache.
    pub fn new() -> TileSessionCache {
        TileSessionCache::default()
    }

    fn lock(&self) -> MutexGuard<'_, Entries> {
        self.entries.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Sessions currently held (checked-out sessions are not counted).
    pub fn len(&self) -> usize {
        self.lock().sessions.len()
    }

    /// `true` when no session is held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lifetime counters summed over the held sessions.
    pub fn stats(&self) -> TileSessionStats {
        let mut total = TileSessionStats::default();
        for (session, _) in self.lock().sessions.values() {
            let s = session.stats();
            total.rebuilds += s.rebuilds;
            total.incremental_updates += s.incremental_updates;
            total.reuse_hits += s.reuse_hits;
            total.cells_reclipped += s.cells_reclipped;
        }
        total
    }

    /// Takes the session for `key` out of the cache, if it holds one.
    pub(crate) fn check_out(&self, key: &TileKey) -> Option<TilingSession> {
        self.lock().sessions.remove(key).map(|(session, _)| session)
    }

    /// Puts a session (back) in as the most recently used one, and
    /// drops the least recently used session when over the cap.
    pub(crate) fn check_in(&self, key: TileKey, session: TilingSession) {
        let mut entries = self.lock();
        entries.tick += 1;
        let tick = entries.tick;
        entries.sessions.insert(key, (session, tick));
        if entries.sessions.len() > TILE_CACHE_CAP {
            let oldest = entries
                .sessions
                .iter()
                .min_by_key(|(_, (_, used))| *used)
                .map(|(k, _)| *k);
            if let Some(k) = oldest {
                entries.sessions.remove(&k);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::SpaceSpec;
    use sprout_board::presets;

    fn session() -> TilingSession {
        let board = presets::two_rail();
        let (net, _) = board.power_nets().next().unwrap();
        let spec = SpaceSpec::build(&board, net, presets::TWO_RAIL_ROUTE_LAYER, &[]).unwrap();
        TilingSession::new(&spec, TileOptions::square(1.0), 1).unwrap()
    }

    fn key(board: u64) -> TileKey {
        TileKey::new(board, NetId(0), 6, TileOptions::square(1.0))
    }

    #[test]
    fn least_recently_used_session_is_evicted_at_the_cap() {
        let cache = TileSessionCache::new();
        let template = session();
        for board in 0..TILE_CACHE_CAP as u64 {
            cache.check_in(key(board), template.clone());
        }
        assert_eq!(cache.len(), TILE_CACHE_CAP);
        // Touch board 0, so board 1 is now the oldest.
        let s = cache.check_out(&key(0)).expect("held");
        cache.check_in(key(0), s);
        cache.check_in(key(1000), template.clone());
        assert_eq!(cache.len(), TILE_CACHE_CAP);
        assert!(cache.check_out(&key(1)).is_none(), "oldest evicted");
        assert!(cache.check_out(&key(0)).is_some(), "recently used kept");
    }

    #[test]
    fn checked_out_sessions_leave_the_store() {
        let cache = TileSessionCache::new();
        let shared = cache.clone();
        cache.check_in(key(7), session());
        assert!(shared.check_out(&key(7)).is_some());
        assert!(cache.check_out(&key(7)).is_none());
        assert!(cache.is_empty());
    }
}
