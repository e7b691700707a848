//! Host-speed correction.
//!
//! The benchmark runs on a shared host whose speed for this kind of code
//! drifts with its neighbours' load, on scales from seconds to minutes: a
//! VM traversal or a compile then takes up to 1.6 times as long, while
//! plain arithmetic hardly slows. A fixed piece of compiler-like work —
//! the walk: hash-map inserts and lookups, small allocations, formatting,
//! sorting and ordered-map range queries over names — slows by about as
//! much as the programs do. So every
//! closed loop times the walk between its requests, and each request's
//! latency is scaled by how slow the walk ran in the same second. The walk
//! is the benchmark's own code, identical on every commit, and calls no
//! code of the program under test.
//!
//! On top of the scaling, end-to-end figures are taken from the quieter
//! half of a run's seconds (those whose walk ran at or below the run's
//! median walk time). Which seconds count depends on the walk alone, never
//! on the latencies being reported.

use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::time::Instant;

use crate::stats::median;

/// Keys the walk's map spreads its inserts over.
const KEYS: u64 = 4096;

/// Iterations of the untimed pass that brings the walk's code back into
/// cache after a request has evicted it.
const WARM_ITERATIONS: u64 = 400;

/// Iterations of the timed pass.
const TIMED_ITERATIONS: u64 = 1600;

/// Map iterations per round of the walk's naming half.
const PER_NAME: u64 = 12;

/// Roughly the time of the timed pass, in ms, on the host the benchmark was
/// sized on (Intel Xeon, 2 vCPUs) in a fast spell. Scaled latencies read as
/// latencies on that host at that speed; only their ratios matter.
pub const REFERENCE_MS: f64 = 0.29;

/// Length of the windows latencies are grouped into, in seconds.
pub const WINDOW_S: f64 = 1.0;

/// The walk: a hash-map half and a naming half, each on fresh state. Its
/// result depends only on `iterations`.
fn walk(iterations: u64) -> u64 {
    hash_half(iterations) ^ name_half(iterations / PER_NAME)
}

/// `iterations` rounds of inserting into and looking up a map of small
/// vectors, naming every seventh key.
fn hash_half(iterations: u64) -> u64 {
    let mut map: HashMap<u64, Vec<u32>> = HashMap::new();
    let mut x = 0x5EED_CA1B_u64;
    let mut acc = 0u64;
    for i in 0..iterations {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let key = x % KEYS;
        map.entry(key)
            .or_insert_with(|| Vec::with_capacity(4))
            .push(i as u32);
        if let Some(v) = map.get(&(x % (KEYS / 2))) {
            acc = acc.wrapping_add(v.len() as u64);
        }
        if i % 7 == 0 {
            acc ^= format!("n{key}").len() as u64;
        }
    }
    acc ^ map.len() as u64
}

/// `rounds` rounds of formatting a name, filing it in an ordered map,
/// sorting and deduplicating a name list and a range query; then joins
/// names and parses their numbers back.
fn name_half(rounds: u64) -> u64 {
    const STEMS: [&str; 4] = ["node", "visit", "field", "expr"];
    let mut by_name: BTreeMap<String, Vec<u64>> = BTreeMap::new();
    let mut names: Vec<String> = Vec::new();
    let mut x = 0x5EED_u64;
    let mut acc = 0u64;
    for i in 0..rounds {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let name = format!("{}_{:x}", STEMS[(x % 4) as usize], x % 997);
        by_name.entry(name.clone()).or_default().push(i);
        if i % 3 == 0 {
            names.push(name);
        }
        if i % 16 == 15 {
            names.sort_unstable();
            names.dedup();
            acc ^= names.iter().map(|n| n.len() as u64).sum::<u64>();
        }
        if let Some((k, v)) = by_name.range(format!("f{}", x % 10)..).next() {
            acc = acc.wrapping_add((k.len() + v.len()) as u64);
        }
    }
    let joined = by_name
        .keys()
        .take(200)
        .cloned()
        .collect::<Vec<_>>()
        .join(",");
    acc ^ joined
        .split(',')
        .filter_map(|n| u64::from_str_radix(n.rsplit('_').next()?, 16).ok())
        .sum::<u64>()
}

/// One timed walk, in ms.
pub fn walk_ms() -> f64 {
    black_box(walk(black_box(WARM_ITERATIONS)));
    let t = Instant::now();
    black_box(walk(black_box(TIMED_ITERATIONS)));
    t.elapsed().as_secs_f64() * 1e3
}

/// The median of `n` timed walks, in ms.
pub fn median_walk_ms(n: usize) -> f64 {
    let samples: Vec<f64> = (0..n).map(|_| walk_ms()).collect();
    median(&samples).expect("n > 0")
}

/// One successful request of a measured phase.
#[derive(Clone, Copy, Debug)]
pub struct Request {
    pub program: usize,
    /// Start, in seconds from the start of the phase.
    pub at: f64,
    pub ms: f64,
}

/// A walk timed during a measured phase.
#[derive(Clone, Copy, Debug)]
pub struct Walk {
    /// Seconds from the start of the phase.
    pub at: f64,
    pub ms: f64,
}

/// Latencies of the quieter half of a phase's windows, scaled to the
/// reference speed.
#[derive(Debug)]
pub struct Scaled {
    /// Scaled latencies in ms, per program.
    pub latencies: [Vec<f64>; 4],
    /// Requests counted over the scaled time the client waited on them.
    pub requests_per_s: f64,
    /// Windows with at least one request, and how many of them counted.
    pub windows: usize,
    pub quiet: usize,
    /// Median walk time over the counted windows, in ms.
    pub walk_ms: f64,
}

fn window(at: f64) -> usize {
    (at / WINDOW_S) as usize
}

/// Scales `requests` by the walks of their window and keeps the quieter
/// half of the windows. A window without a walk of its own borrows the
/// phase's median walk.
pub fn scale(requests: &[Request], walks: &[Walk]) -> Scaled {
    let n_windows = requests.iter().map(|r| window(r.at) + 1).max().unwrap_or(0);
    let mut per_window: Vec<Vec<f64>> = vec![Vec::new(); n_windows];
    for w in walks {
        if let Some(v) = per_window.get_mut(window(w.at)) {
            v.push(w.ms);
        }
    }
    let all: Vec<f64> = walks.iter().map(|w| w.ms).collect();
    let fallback = median(&all).unwrap_or(REFERENCE_MS);
    let walk_of: Vec<f64> = per_window
        .iter()
        .map(|v| median(v).unwrap_or(fallback))
        .collect();
    let mut used = vec![false; n_windows];
    for r in requests {
        used[window(r.at)] = true;
    }
    let busy: Vec<f64> = (0..n_windows)
        .filter(|&w| used[w])
        .map(|w| walk_of[w])
        .collect();
    let cut = median(&busy).unwrap_or(fallback);
    let quiet: Vec<bool> = (0..n_windows)
        .map(|w| used[w] && walk_of[w] <= cut)
        .collect();

    let mut latencies: [Vec<f64>; 4] = Default::default();
    let (mut served, mut waited_ms) = (0usize, 0f64);
    for r in requests.iter().filter(|r| quiet[window(r.at)]) {
        let ms = r.ms * REFERENCE_MS / walk_of[window(r.at)];
        latencies[r.program].push(ms);
        served += 1;
        waited_ms += ms;
    }
    let requests_per_s = served as f64 / (waited_ms / 1e3);
    let counted: Vec<f64> = (0..n_windows)
        .filter(|&w| quiet[w])
        .map(|w| walk_of[w])
        .collect();
    Scaled {
        latencies,
        requests_per_s,
        windows: busy.len(),
        quiet: counted.len(),
        walk_ms: median(&counted).unwrap_or(fallback),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(program: usize, at: f64, ms: f64) -> Request {
        Request { program, at, ms }
    }

    #[test]
    fn slow_windows_are_dropped_and_the_rest_scaled() {
        // Window 0 runs at the reference speed, window 1 at half of it and
        // window 2 at a tenth less.
        let walks = [
            Walk {
                at: 0.1,
                ms: REFERENCE_MS,
            },
            Walk {
                at: 1.1,
                ms: 2.0 * REFERENCE_MS,
            },
            Walk {
                at: 2.1,
                ms: 1.1 * REFERENCE_MS,
            },
        ];
        let requests = [req(0, 0.2, 10.0), req(0, 1.2, 20.0), req(1, 2.2, 11.0)];
        let s = scale(&requests, &walks);
        assert_eq!((s.windows, s.quiet), (3, 2));
        assert_eq!(s.latencies[0], vec![10.0]);
        assert!((s.latencies[1][0] - 10.0).abs() < 1e-9);
        assert!((s.requests_per_s - 100.0).abs() < 1e-6);
    }

    #[test]
    fn the_walk_does_the_same_work_every_time() {
        assert_eq!(walk(TIMED_ITERATIONS), walk(TIMED_ITERATIONS));
        assert!(walk_ms() > 0.0);
    }
}
