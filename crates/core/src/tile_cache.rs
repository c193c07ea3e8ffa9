//! A bounded, shareable cache of finished routing graphs.
//!
//! Algorithm 1's graph depends only on the available space — the design
//! space, every blocker polygon — and the tile options. A [`TileCache`]
//! keys finished graphs by exactly that, bit for bit, and hands every
//! request for a space it has seen the same [`Arc<RoutingGraph>`]:
//! nothing is clipped or assembled again. Net, layer and board drop out
//! of the key, because the graph reads none of them. An entry shares
//! its space's prepared [`Blocker`]s rather than copying them, and a
//! blocker served from the same job's store matches by pointer before
//! its bits are compared.
//!
//! A [`Router`](crate::router::Router) tiles through one of these. By
//! default each router and each [`Supervisor`](crate::supervisor::Supervisor)
//! job gets a private cache that dies with it. A serving executor
//! instead keeps one cache for its whole lifetime and hands it to every
//! job ([`Supervisor::with_tile_cache`](crate::supervisor::Supervisor::with_tile_cache)),
//! so a board seen again skips tiling.
//!
//! Misses are single-flight: a request for a space another thread is
//! already tiling waits for that build instead of tiling it twice. A
//! build that fails or panics drops its claim and wakes the waiters,
//! which then tile for themselves. At most [`TILE_CACHE_CAP`] graphs are
//! kept; the least recently used one is dropped to make room.

use crate::graph::RoutingGraph;
use crate::space::{Blocker, Fnv, SpaceSpec};
use crate::tile::TileOptions;
use crate::tile_session::build_graph;
use crate::SproutError;
use sprout_geom::Rect;
use std::fmt;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// Most graphs a [`TileCache`] keeps. A board takes one per distinct
/// rail space, so a `two_rail` board routed at one budget takes two and
/// the cap holds a working set of a dozen or more boards.
pub const TILE_CACHE_CAP: usize = 32;

/// How a route's graph was obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TileOutcome {
    /// The space was tiled from scratch.
    Rebuilt,
    /// A finished graph of the identical space was shared.
    Reused,
}

/// The bit patterns of the design space and tile options.
type ShapeBits = [u64; 7];

fn shape_bits(space: Rect, opts: TileOptions) -> ShapeBits {
    let (lo, hi) = (space.min(), space.max());
    [
        lo.x,
        lo.y,
        hi.x,
        hi.y,
        opts.dx,
        opts.dy,
        opts.min_cell_fraction,
    ]
    .map(f64::to_bits)
}

/// FNV-1a over the shape bits and every blocker's vertex count and
/// bounds. Only a prefilter: a hit is confirmed by full bitwise
/// equality.
fn space_hash(shape: &ShapeBits, blockers: &[Blocker]) -> u64 {
    let mut h = Fnv::new();
    shape.iter().for_each(|&w| h.mix(w));
    for b in blockers {
        let (lo, hi) = (b.bounds().min(), b.bounds().max());
        h.mix(b.polygon().vertices().len() as u64);
        for w in [lo.x, lo.y, hi.x, hi.y] {
            h.mix(w.to_bits());
        }
    }
    h.finish()
}

/// Bitwise equality of two blocker lists; blockers shared from one
/// job's store compare by pointer.
fn blockers_bit_equal(a: &[Blocker], b: &[Blocker]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(p, q)| p.bit_eq(q))
}

/// A graph, or the claim of the thread building it.
enum Slot {
    Building,
    Ready(Arc<RoutingGraph>),
}

struct Entry {
    hash: u64,
    shape: ShapeBits,
    /// Shared with the spaces that built it, not copied.
    blockers: Vec<Blocker>,
    slot: Slot,
    /// Tick of the last hand-out, for LRU eviction.
    used: u64,
}

#[derive(Default)]
struct Entries {
    list: Vec<Entry>,
    tick: u64,
    /// Threads waiting on a build (observed by the tests).
    waiting: usize,
}

impl Entries {
    fn find(&self, hash: u64, shape: &ShapeBits, blockers: &[Blocker]) -> Option<usize> {
        self.list.iter().position(|e| {
            e.hash == hash && e.shape == *shape && blockers_bit_equal(&e.blockers, blockers)
        })
    }

    fn ready(&self) -> usize {
        self.list
            .iter()
            .filter(|e| matches!(e.slot, Slot::Ready(_)))
            .count()
    }
}

#[derive(Default)]
struct Shared {
    entries: Mutex<Entries>,
    built: Condvar,
}

/// A bounded LRU cache of finished routing graphs, keyed by the exact
/// space. Clones share one store.
#[derive(Clone, Default)]
pub struct TileCache {
    shared: Arc<Shared>,
}

impl fmt::Debug for TileCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TileCache")
            .field("graphs", &self.len())
            .finish()
    }
}

/// A miss's claim on its entry. Dropped without [`Claim::fill`] — the
/// build failed or panicked — it removes the entry and wakes the
/// waiters, so none of them waits forever.
struct Claim<'c> {
    cache: &'c TileCache,
    hash: u64,
    shape: ShapeBits,
    blockers: &'c [Blocker],
    filled: bool,
}

impl Claim<'_> {
    fn fill(mut self, graph: Arc<RoutingGraph>) {
        let mut entries = self.cache.lock();
        entries.tick += 1;
        let tick = entries.tick;
        let k = entries
            .find(self.hash, &self.shape, self.blockers)
            .expect("a claimed entry stays until filled");
        entries.list[k].slot = Slot::Ready(graph);
        entries.list[k].used = tick;
        if entries.ready() > TILE_CACHE_CAP {
            let oldest = (0..entries.list.len())
                .filter(|&k| matches!(entries.list[k].slot, Slot::Ready(_)))
                .min_by_key(|&k| entries.list[k].used);
            if let Some(k) = oldest {
                entries.list.swap_remove(k);
            }
        }
        self.filled = true;
        drop(entries);
        self.cache.shared.built.notify_all();
    }
}

impl Drop for Claim<'_> {
    fn drop(&mut self) {
        if self.filled {
            return;
        }
        let mut entries = self.cache.lock();
        if let Some(k) = entries.find(self.hash, &self.shape, self.blockers) {
            entries.list.swap_remove(k);
        }
        drop(entries);
        self.cache.shared.built.notify_all();
    }
}

impl TileCache {
    /// An empty cache.
    pub fn new() -> TileCache {
        TileCache::default()
    }

    fn lock(&self) -> MutexGuard<'_, Entries> {
        self.shared
            .entries
            .lock()
            .unwrap_or_else(|e| e.into_inner())
    }

    /// Finished graphs currently held.
    pub fn len(&self) -> usize {
        self.lock().ready()
    }

    /// `true` when no finished graph is held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The graph of `spec` at `opts`: the held one when this exact space
    /// was tiled before, else a fresh build on up to `threads` threads
    /// (`0` = machine parallelism), bit-identical to
    /// [`space_to_graph`](crate::tile::space_to_graph).
    ///
    /// # Errors
    ///
    /// Returns [`SproutError::InvalidConfig`] for invalid tile options.
    pub fn graph(
        &self,
        spec: &SpaceSpec,
        opts: TileOptions,
        threads: usize,
    ) -> Result<(Arc<RoutingGraph>, TileOutcome), SproutError> {
        self.graph_with(spec.design_space, &spec.blockers, opts, || {
            build_graph(spec.design_space, &spec.blockers, opts, threads)
        })
    }

    /// [`TileCache::graph`] with the miss path's build supplied.
    fn graph_with(
        &self,
        space: Rect,
        blockers: &[Blocker],
        opts: TileOptions,
        build: impl FnOnce() -> Result<RoutingGraph, SproutError>,
    ) -> Result<(Arc<RoutingGraph>, TileOutcome), SproutError> {
        let shape = shape_bits(space, opts);
        let hash = space_hash(&shape, blockers);
        let mut entries = self.lock();
        while let Some(k) = entries.find(hash, &shape, blockers) {
            if let Slot::Ready(graph) = &entries.list[k].slot {
                let graph = Arc::clone(graph);
                entries.tick += 1;
                entries.list[k].used = entries.tick;
                return Ok((graph, TileOutcome::Reused));
            }
            entries.waiting += 1;
            entries = self
                .shared
                .built
                .wait(entries)
                .unwrap_or_else(|e| e.into_inner());
            entries.waiting -= 1;
        }
        entries.list.push(Entry {
            hash,
            shape,
            blockers: blockers.to_vec(),
            slot: Slot::Building,
            used: 0,
        });
        drop(entries);
        let claim = Claim {
            cache: self,
            hash,
            shape,
            blockers,
            filled: false,
        };
        let graph = Arc::new(build()?);
        claim.fill(Arc::clone(&graph));
        Ok((graph, TileOutcome::Rebuilt))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sprout_board::presets;
    use sprout_geom::{Point, Polygon};
    use std::sync::mpsc;

    fn spec() -> SpaceSpec {
        let board = presets::two_rail();
        let (net, _) = board.power_nets().next().unwrap();
        SpaceSpec::build(&board, net, presets::TWO_RAIL_ROUTE_LAYER, &[]).unwrap()
    }

    /// The `n`-th distinct space: the base spec plus one small blocker.
    fn variant(base: &SpaceSpec, n: usize) -> Vec<Blocker> {
        let x = 1.0 + 0.01 * n as f64;
        let mut blockers = base.blockers.clone();
        let small = Polygon::rectangle(Point::new(x, 1.0), Point::new(x + 0.1, 1.1)).unwrap();
        blockers.push(Blocker::new(small));
        blockers
    }

    fn tiny_graph() -> RoutingGraph {
        let space = Rect::new(Point::ORIGIN, Point::new(1.0, 1.0)).unwrap();
        build_graph(space, &[], TileOptions::square(0.5), 1).unwrap()
    }

    fn waiters(cache: &TileCache) -> usize {
        cache.lock().waiting
    }

    #[test]
    fn least_recently_used_session_is_evicted_at_the_cap() {
        let cache = TileCache::new();
        let base = spec();
        let opts = TileOptions::square(1.0);
        let get = |n: usize| {
            cache
                .graph_with(base.design_space, &variant(&base, n), opts, || {
                    Ok(tiny_graph())
                })
                .unwrap()
                .1
        };
        for n in 0..TILE_CACHE_CAP {
            assert_eq!(get(n), TileOutcome::Rebuilt);
        }
        assert_eq!(cache.len(), TILE_CACHE_CAP);
        // Touch space 0, so space 1 is now the oldest.
        assert_eq!(get(0), TileOutcome::Reused);
        assert_eq!(get(1000), TileOutcome::Rebuilt);
        assert_eq!(cache.len(), TILE_CACHE_CAP);
        assert_eq!(get(0), TileOutcome::Reused, "recently used kept");
        assert_eq!(get(1), TileOutcome::Rebuilt, "oldest evicted");
    }

    /// How a blocked build ends once released.
    #[derive(Clone, Copy, Debug)]
    enum Ending {
        Graph,
        Error,
        Panic,
    }

    type Handle<T> = std::thread::JoinHandle<T>;
    type Served = (Arc<RoutingGraph>, TileOutcome);

    /// Requests the base space on a new thread whose build reports its
    /// start, waits for the returned sender, then ends as `ending`.
    fn blocked_build(
        cache: &TileCache,
        ending: Ending,
    ) -> (Handle<Result<Served, SproutError>>, mpsc::Sender<()>) {
        let (started_tx, started) = mpsc::channel();
        let (release, release_rx) = mpsc::channel::<()>();
        let cache = cache.clone();
        let handle = std::thread::spawn(move || {
            let base = spec();
            let opts = TileOptions::square(1.0);
            cache.graph_with(base.design_space, &base.blockers, opts, || {
                started_tx.send(()).unwrap();
                release_rx.recv().unwrap();
                match ending {
                    Ending::Graph => Ok(tiny_graph()),
                    Ending::Error => Err(SproutError::InvalidConfig("injected tiling error")),
                    Ending::Panic => panic!("injected tiling panic"),
                }
            })
        });
        started.recv().unwrap();
        (handle, release)
    }

    /// Requests the base space on a new thread, counting its builds, and
    /// returns once that thread waits on the build in flight.
    fn waiting_request(cache: &TileCache, builds: &Arc<Mutex<usize>>) -> Waiter {
        let (shared, builds) = (cache.clone(), Arc::clone(builds));
        let (tx, served) = mpsc::channel();
        let handle = std::thread::spawn(move || {
            let base = spec();
            let opts = TileOptions::square(1.0);
            let result = shared.graph_with(base.design_space, &base.blockers, opts, || {
                *builds.lock().unwrap() += 1;
                Ok(tiny_graph())
            });
            tx.send(result.unwrap()).unwrap();
        });
        while waiters(cache) == 0 {
            std::thread::yield_now();
        }
        Waiter { handle, served }
    }

    struct Waiter {
        handle: Handle<()>,
        served: mpsc::Receiver<Served>,
    }

    impl Waiter {
        /// The waiter's result; fails rather than hangs when it was
        /// never woken.
        fn finish(self) -> Served {
            let served = self
                .served
                .recv_timeout(std::time::Duration::from_secs(60))
                .expect("the waiter was stranded");
            self.handle.join().unwrap();
            served
        }
    }

    #[test]
    fn concurrent_requests_for_one_space_build_once() {
        let cache = TileCache::new();
        let (builder, release) = blocked_build(&cache, Ending::Graph);
        let builds = Arc::new(Mutex::new(0));
        let waiter = waiting_request(&cache, &builds);
        release.send(()).unwrap();
        let (first, outcome) = builder.join().unwrap().unwrap();
        assert_eq!(outcome, TileOutcome::Rebuilt);
        let (second, outcome) = waiter.finish();
        assert_eq!(outcome, TileOutcome::Reused);
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!(*builds.lock().unwrap(), 0, "the waiter never built");
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn a_failing_builder_releases_its_waiter() {
        for failure in [Ending::Error, Ending::Panic] {
            let cache = TileCache::new();
            let (builder, release) = blocked_build(&cache, failure);
            let builds = Arc::new(Mutex::new(0));
            let waiter = waiting_request(&cache, &builds);
            release.send(()).unwrap();
            match builder.join() {
                Ok(result) => assert!(result.is_err(), "{failure:?}"),
                Err(_) => assert!(matches!(failure, Ending::Panic)),
            }
            let (_, outcome) = waiter.finish();
            assert_eq!(
                outcome,
                TileOutcome::Rebuilt,
                "{failure:?}: the waiter built"
            );
            assert_eq!(*builds.lock().unwrap(), 1, "{failure:?}");
            assert_eq!(cache.len(), 1, "{failure:?}");
        }
    }
}
