//! The compiled-engine cache: LRU + single-flight.
//!
//! Compiling a program (parse → sema → fuse → lower) costs
//! milliseconds; running it costs microseconds. A service that recompiled
//! per request would be compile-bound, so the daemon keys ready
//! `Arc<Engine>`s by [`EngineKey`] — source text, entry point, fusion
//! options, backend, opt level, args — and reuses them across requests
//! and connections.
//!
//! Two properties matter under concurrency:
//!
//! - **Single-flight**: N simultaneous requests for one uncached program
//!   trigger exactly one compile; the other N−1 block on the in-flight
//!   slot and share its result. Asserted end-to-end against
//!   `grafter_vm::lowering_count()` by the server test suite.
//! - **LRU eviction**: at most `capacity` ready engines stay resident;
//!   inserting past that drops the least-recently-used. In-flight builds
//!   are never evicted (there is a waiter by definition).

use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex};

use grafter_engine::{Engine, Error};

use crate::proto::EngineKey;

/// Counters exposed by the `stats` method.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Ready engines currently resident.
    pub size: u64,
    /// Requests answered from a ready engine.
    pub hits: u64,
    /// Requests that started a compile.
    pub misses: u64,
    /// Ready engines dropped by LRU pressure.
    pub evictions: u64,
    /// Requests that blocked on another request's in-flight compile
    /// instead of compiling themselves (single-flight saves).
    pub single_flight_waits: u64,
}

enum Slot {
    /// A compile is in flight; waiters sleep on the cache condvar.
    Building,
    Ready {
        engine: Arc<Engine>,
        last_used: u64,
    },
}

struct CacheState {
    map: HashMap<EngineKey, Slot>,
    /// Logical clock for LRU ordering.
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
    waits: u64,
}

/// The daemon's compiled-engine cache. One instance is shared by every
/// connection thread.
pub struct EngineCache {
    state: Mutex<CacheState>,
    cv: Condvar,
    capacity: usize,
}

impl EngineCache {
    /// A cache holding at most `capacity` ready engines (clamped ≥ 1).
    pub fn new(capacity: usize) -> EngineCache {
        EngineCache {
            state: Mutex::new(CacheState {
                map: HashMap::new(),
                tick: 0,
                hits: 0,
                misses: 0,
                evictions: 0,
                waits: 0,
            }),
            cv: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// The engine for `key`, compiling it via `build` on a miss.
    ///
    /// Concurrent callers with the same key during the compile block and
    /// share the one result (single-flight); the compile itself runs
    /// outside the cache lock, so distinct programs compile in parallel.
    ///
    /// # Errors
    ///
    /// Propagates `build`'s compile error to the caller that ran it;
    /// blocked waiters then retry (first one re-attempts the build). A
    /// `build` that panics releases the slot the same way before the
    /// panic resumes.
    pub fn get_or_build(
        &self,
        key: &EngineKey,
        build: impl FnOnce() -> Result<Engine, Error>,
    ) -> Result<Arc<Engine>, Error> {
        let mut state = self.state.lock().expect("cache lock");
        loop {
            let tick = state.tick + 1;
            match state.map.get_mut(key) {
                Some(Slot::Ready { engine, last_used }) => {
                    *last_used = tick;
                    let engine = Arc::clone(engine);
                    state.tick = tick;
                    state.hits += 1;
                    return Ok(engine);
                }
                Some(Slot::Building) => {
                    state.waits += 1;
                    state = self.cv.wait(state).expect("cache wait");
                }
                None => break,
            }
        }
        state.misses += 1;
        state.map.insert(key.clone(), Slot::Building);
        drop(state);

        let built = match std::panic::catch_unwind(std::panic::AssertUnwindSafe(build)) {
            Ok(built) => built,
            Err(panic) => {
                // Left at `Building`, the slot would block every later
                // request for this key forever.
                let mut state = self.state.lock().expect("cache lock");
                state.map.remove(key);
                self.cv.notify_all();
                drop(state);
                std::panic::resume_unwind(panic);
            }
        };

        let mut state = self.state.lock().expect("cache lock");
        match built {
            Ok(engine) => {
                let engine = Arc::new(engine);
                state.tick += 1;
                let tick = state.tick;
                state.map.insert(
                    key.clone(),
                    Slot::Ready {
                        engine: Arc::clone(&engine),
                        last_used: tick,
                    },
                );
                self.evict_lru(&mut state);
                self.cv.notify_all();
                Ok(engine)
            }
            Err(e) => {
                // Failed compiles leave no residue; a waiter (or retry)
                // attempts the build afresh.
                state.map.remove(key);
                self.cv.notify_all();
                Err(e)
            }
        }
    }

    fn evict_lru(&self, state: &mut CacheState) {
        while state
            .map
            .values()
            .filter(|s| matches!(s, Slot::Ready { .. }))
            .count()
            > self.capacity
        {
            let victim: Option<EngineKey> = state
                .map
                .iter()
                .filter_map(|(k, s)| match s {
                    Slot::Ready { last_used, .. } => Some((*last_used, k)),
                    Slot::Building => None,
                })
                .min_by_key(|&(t, _)| t)
                .map(|(_, k)| k.clone());
            match victim {
                Some(k) => {
                    state.map.remove(&k);
                    state.evictions += 1;
                }
                None => break,
            }
        }
    }

    /// Applies `f` to every resident ready engine (in no particular
    /// order; in-flight builds are skipped). What the `stats` method's
    /// `fusion` aggregate iterates.
    pub fn for_each_ready(&self, mut f: impl FnMut(&Arc<Engine>)) {
        let state = self.state.lock().expect("cache lock");
        for slot in state.map.values() {
            if let Slot::Ready { engine, .. } = slot {
                f(engine);
            }
        }
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        let state = self.state.lock().expect("cache lock");
        CacheStats {
            size: state
                .map
                .values()
                .filter(|s| matches!(s, Slot::Ready { .. }))
                .count() as u64,
            hits: state.hits,
            misses: state.misses,
            evictions: state.evictions,
            single_flight_waits: state.waits,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::ProgramSpec;
    use grafter_engine::{Backend, FusionOptions, OptLevel};

    fn key(tag: &str) -> EngineKey {
        ProgramSpec {
            source: tag.to_string(),
            root: "N".to_string(),
            passes: vec!["t".to_string()],
            backend: Backend::Vm,
            opt_level: OptLevel::O2,
            fusion: FusionOptions::default(),
            args: Vec::new(),
        }
        .key()
    }

    fn tiny_engine(tag: usize) -> Result<Engine, Error> {
        let src =
            format!("tree class N {{ int a = {tag}; virtual traversal t() {{ a = a + 1; }} }}");
        Engine::builder().source(src).entry("N", &["t"]).build()
    }

    #[test]
    fn hits_reuse_misses_compile_lru_evicts() {
        let cache = EngineCache::new(2);
        let a = cache.get_or_build(&key("a"), || tiny_engine(1)).unwrap();
        let a2 = cache
            .get_or_build(&key("a"), || panic!("must not rebuild"))
            .unwrap();
        assert!(Arc::ptr_eq(&a, &a2));
        cache.get_or_build(&key("b"), || tiny_engine(2)).unwrap();
        // Touch `a` so `b` is the LRU victim when `c` lands.
        cache.get_or_build(&key("a"), || panic!("cached")).unwrap();
        cache.get_or_build(&key("c"), || tiny_engine(3)).unwrap();

        let stats = cache.stats();
        assert_eq!(stats.size, 2);
        assert_eq!(stats.misses, 3);
        assert_eq!(stats.hits, 2);
        assert_eq!(stats.evictions, 1);

        // `b` was evicted, `a` survived.
        cache
            .get_or_build(&key("a"), || panic!("still cached"))
            .unwrap();
        let rebuilt = std::cell::Cell::new(false);
        cache
            .get_or_build(&key("b"), || {
                rebuilt.set(true);
                tiny_engine(2)
            })
            .unwrap();
        assert!(rebuilt.get(), "evicted entry must rebuild");
    }

    #[test]
    fn failed_builds_leave_no_residue() {
        let cache = EngineCache::new(4);
        let err = cache.get_or_build(&key("bad"), || {
            Engine::builder()
                .source("not a program")
                .entry("N", &["t"])
                .build()
        });
        assert!(err.is_err());
        assert_eq!(cache.stats().size, 0);
        // The key is free again: a good build succeeds.
        cache.get_or_build(&key("bad"), || tiny_engine(9)).unwrap();
        assert_eq!(cache.stats().size, 1);
    }

    #[test]
    fn a_panicking_build_releases_its_slot() {
        let cache = Arc::new(EngineCache::new(4));
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cache.get_or_build(&key("boom"), || panic!("build blew up"))
        }));
        assert!(unwound.is_err(), "the panic reaches the builder's caller");
        // The next request for the key builds instead of waiting forever.
        let (tx, rx) = std::sync::mpsc::channel();
        let retry = Arc::clone(&cache);
        std::thread::spawn(move || {
            let built = retry.get_or_build(&key("boom"), || tiny_engine(7)).is_ok();
            tx.send(built).expect("test still listening");
        });
        let built = rx
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("second build must not block on the abandoned slot");
        assert!(built);
        assert_eq!(cache.stats().size, 1);
    }

    #[test]
    fn concurrent_same_key_builds_once() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let cache = Arc::new(EngineCache::new(4));
        let builds = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let cache = Arc::clone(&cache);
            let builds = Arc::clone(&builds);
            handles.push(std::thread::spawn(move || {
                cache
                    .get_or_build(&key("shared"), || {
                        builds.fetch_add(1, Ordering::SeqCst);
                        // Widen the race window so waiters actually wait.
                        std::thread::sleep(std::time::Duration::from_millis(30));
                        tiny_engine(5)
                    })
                    .unwrap()
            }));
        }
        let engines: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!(builds.load(Ordering::SeqCst), 1, "single-flight: one build");
        assert!(engines.windows(2).all(|w| Arc::ptr_eq(&w[0], &w[1])));
        assert!(cache.stats().single_flight_waits >= 1);
    }
}
