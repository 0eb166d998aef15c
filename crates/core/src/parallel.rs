//! The deterministic parallel epoch engine.
//!
//! Pod managers plan independently — each [`crate::pod::PodManager::plan`]
//! reads `&PlatformState` + `&LoadSnapshot` and returns a plan without
//! touching shared state — which is exactly the paper's §III.A
//! scalability argument. [`EpochPool`] turns that independence into real
//! OS threads while keeping the platform bit-deterministic:
//!
//! * the work is split into **contiguous chunks**, one scoped worker
//!   thread per chunk ([`std::thread::scope`]);
//! * chunk results are reassembled **in chunk-index order** and
//!   concatenated, so the output vector is always in input order — the
//!   *fixed reduction order*. Plans are then applied serially in that
//!   order, and the serialized VIP/RIP queue remains the only merge
//!   point;
//! * events are emitted only from the serial sections, so flight-recorder
//!   logs are byte-identical at any thread count (CI pins this).
//!
//! Every entry point takes a **region id** — the value of a `REGION_*`
//! const from [`obs::phases`] — naming the declared effect set of the
//! closure. The pool debug-asserts the region is declared (fast dynamic
//! feedback in tests) and `cargo run -p analyze -- --deny` statically
//! lints each call site's closure against its declaration.
//!
//! The thread count comes from [`crate::config::PlatformConfig::threads`]
//! (0 = auto: the `MEGADC_THREADS` environment variable when set, else
//! [`std::thread::available_parallelism`]). A worker panic is re-raised
//! on the caller via [`std::panic::resume_unwind`].
//!
//! ## Schedule-shuffle sanitizer
//!
//! `MEGADC_SHUFFLE=<seed>` (or [`EpochPool::with_shuffle`]) arms an
//! adversarial scheduler: chunks are *spawned* in a seeded permutation
//! and each worker inserts seeded [`std::thread::yield_now`] calls, so
//! completion order is deliberately scrambled. Results are still placed
//! into slots by original chunk index and concatenated in index order,
//! so outputs — and therefore event logs — must be byte-identical under
//! any seed. CI runs the determinism gate under several seeds; a
//! divergence means some caller was accidentally depending on scheduling
//! order, which the happy-path scheduler would hide.

/// A fixed-width pool of scoped worker threads for the epoch's declared
/// parallel regions.
///
/// "Pool" is logical: threads are scoped per call (no persistent workers,
/// no channels), which keeps the engine free of shared mutable state and
/// makes the reduction order trivially auditable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpochPool {
    threads: usize,
    /// Seed for the schedule-shuffle sanitizer; `None` = natural order.
    shuffle: Option<u64>,
}

impl EpochPool {
    /// A pool of `threads` workers; `0` resolves to the auto thread count
    /// ([`auto_threads`]). The resolved count is always ≥ 1. The
    /// schedule-shuffle sanitizer is armed when `MEGADC_SHUFFLE` is set
    /// to an integer seed.
    pub fn new(threads: usize) -> Self {
        EpochPool::with_shuffle(threads, shuffle_seed_from_env())
    }

    /// A pool with an explicit shuffle seed (`None` disables the
    /// sanitizer), independent of the environment — tests use this to
    /// avoid `set_var` races.
    pub fn with_shuffle(threads: usize, shuffle: Option<u64>) -> Self {
        let threads = if threads == 0 {
            auto_threads()
        } else {
            threads
        };
        EpochPool {
            threads: threads.max(1),
            shuffle,
        }
    }

    /// The resolved worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The armed shuffle seed, if any.
    pub fn shuffle_seed(&self) -> Option<u64> {
        self.shuffle
    }

    /// Map `f` over `items`, appending results to `out` in input order
    /// (the fixed reduction order). `out` is cleared first, so a caller
    /// can reuse one allocation across epochs. `region` names the
    /// declared effect set of `f` in [`obs::phases::REGIONS`].
    pub fn map_into<T, R, F>(&self, region: &str, items: &[T], out: &mut Vec<R>, f: F)
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        debug_assert!(
            obs::phases::region_declared(region),
            "parallel region {region:?} has no obs::phases::RegionDecl"
        );
        out.clear();
        let n = items.len();
        let threads = self.threads.min(n.max(1));
        if (threads <= 1 || n <= 1) && self.shuffle.is_none() {
            out.extend(items.iter().map(f));
            return;
        }
        let chunk_len = n.div_ceil(threads);
        let chunks: Vec<(usize, &[T])> = items.chunks(chunk_len).enumerate().collect();
        let spawn_order = spawn_permutation(self.shuffle, chunks.len());
        let f = &f;
        let mut slots: Vec<Option<Vec<R>>> = (0..chunks.len()).map(|_| None).collect();
        std::thread::scope(|scope| {
            let handles: Vec<_> = spawn_order
                .iter()
                .map(|&slot| {
                    let (idx, chunk) = chunks[slot];
                    let jitter = self.shuffle.map(|seed| mix(seed, idx as u64) % 4);
                    scope.spawn(move || {
                        // Under the sanitizer, stagger this worker's start
                        // so completion order is scrambled relative to
                        // spawn order, not just permuted with it.
                        for _ in 0..jitter.unwrap_or(0) {
                            std::thread::yield_now();
                        }
                        (idx, chunk.iter().map(f).collect::<Vec<R>>())
                    })
                })
                .collect();
            for handle in handles {
                match handle.join() {
                    Ok((idx, part)) => slots[idx] = Some(part),
                    Err(payload) => std::panic::resume_unwind(payload),
                }
            }
        });
        // Reassemble in chunk-index order: chunk k's results land before
        // chunk k+1's regardless of spawn permutation or which worker
        // finished first. Every join either filled its slot or unwound,
        // so no slot can be empty here.
        debug_assert!(slots.iter().all(Option::is_some));
        for part in slots.into_iter().flatten() {
            out.extend(part);
        }
    }
}

impl Default for EpochPool {
    fn default() -> Self {
        EpochPool::new(0)
    }
}

/// The auto thread count: `MEGADC_THREADS` when set to a positive
/// integer, else the host's available parallelism, else 1.
pub fn auto_threads() -> usize {
    std::env::var("MEGADC_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .or_else(|| std::thread::available_parallelism().ok().map(|n| n.get()))
        .unwrap_or(1)
}

/// The shuffle seed from `MEGADC_SHUFFLE`, when set to an integer.
pub fn shuffle_seed_from_env() -> Option<u64> {
    std::env::var("MEGADC_SHUFFLE")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
}

/// A seeded Fisher–Yates permutation of `0..n` (identity when the
/// sanitizer is off).
fn spawn_permutation(seed: Option<u64>, n: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    if let Some(seed) = seed {
        let mut s = mix(seed, n as u64);
        for i in (1..n).rev() {
            s = xorshift(s);
            let j = (s % (i as u64 + 1)) as usize;
            order.swap(i, j);
        }
    }
    order
}

fn xorshift(mut s: u64) -> u64 {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    s.max(1)
}

fn mix(seed: u64, salt: u64) -> u64 {
    xorshift(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(salt) | 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::phases::REGION_POD_PLANNING;

    #[test]
    fn reduction_order_is_input_order_at_any_thread_count() {
        // 997 is prime: uneven chunks. The 5-item cases ask for more
        // threads than items, so one worker runs per item.
        let cases = [
            (997, 1),
            (997, 2),
            (997, 3),
            (997, 4),
            (997, 8),
            (997, 64),
            (5, 8),
            (5, 64),
        ];
        for (n, threads) in cases {
            let items: Vec<u64> = (0..n).collect();
            let seq: Vec<u64> = items.iter().map(|&x| x * x + 1).collect();
            let mut par = Vec::new();
            EpochPool::new(threads).map_into(REGION_POD_PLANNING, &items, &mut par, |&x| x * x + 1);
            assert_eq!(par, seq, "order broke: {n} items at {threads} threads");
        }
    }

    #[test]
    fn map_into_reuses_and_clears_the_buffer() {
        let pool = EpochPool::new(4);
        let mut out = vec![99u64; 50];
        pool.map_into(REGION_POD_PLANNING, &[1u64, 2, 3], &mut out, |&x| x * 10);
        assert_eq!(out, vec![10, 20, 30]);
        pool.map_into(REGION_POD_PLANNING, &[], &mut out, |&x: &u64| x);
        assert!(out.is_empty());
    }

    #[test]
    fn zero_resolves_to_auto_and_is_positive() {
        assert!(EpochPool::new(0).threads() >= 1);
        assert!(auto_threads() >= 1);
        assert_eq!(EpochPool::new(7).threads(), 7);
    }

    #[test]
    fn worker_panic_reaches_the_caller() {
        let pool = EpochPool::new(4);
        let items: Vec<i32> = (0..100).collect();
        let caught = std::panic::catch_unwind(|| {
            pool.map_into(REGION_POD_PLANNING, &items, &mut Vec::new(), |&x| {
                assert!(x != 57, "boom");
                x
            })
        });
        assert!(caught.is_err(), "worker panic must propagate");
    }

    #[test]
    fn shuffle_permutes_spawn_order_but_never_results() {
        let items: Vec<u64> = (0..503).collect();
        let hash = |&x: &u64| x.wrapping_mul(2654435761) ^ 0xABCD;
        let mut baseline = Vec::new();
        EpochPool::with_shuffle(1, None).map_into(REGION_POD_PLANNING, &items, &mut baseline, hash);
        for threads in [1, 3, 8] {
            for seed in [0u64, 7, 41, u64::MAX] {
                let pool = EpochPool::with_shuffle(threads, Some(seed));
                assert_eq!(pool.shuffle_seed(), Some(seed));
                let mut out = Vec::new();
                pool.map_into(REGION_POD_PLANNING, &items, &mut out, hash);
                assert_eq!(out, baseline, "shuffle seed {seed} at {threads} threads");
            }
        }
        // The permutation itself is non-trivial for real seeds...
        let perm = spawn_permutation(Some(7), 64);
        assert_ne!(perm, (0..64).collect::<Vec<_>>());
        let mut sorted = perm.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..64).collect::<Vec<_>>());
        // ...and the identity when the sanitizer is off.
        assert_eq!(spawn_permutation(None, 64), (0..64).collect::<Vec<_>>());
    }
}
