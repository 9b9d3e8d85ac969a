//! Execution engines: how the simulator schedules DPU execution on the
//! host machine.
//!
//! The paper's platform runs 2,524 DPUs *concurrently*; simulating them
//! one after another on the host thread taxes a `--paper-scale` run with
//! a ~2,000× serialization factor in wall-clock. The
//! [`ExecutionEngine`] selected through
//! [`PimConfig::engine`](crate::config::PimConfig) removes that tax by
//! fanning DPU execution out over OS threads — without changing a single
//! simulated bit:
//!
//! * every [`Dpu`] is self-contained (private MRAM/WRAM, cycle counter,
//!   sanitizer), so concurrent execution shares no mutable state;
//! * the engine returns per-DPU results **in DPU-index order**, and the
//!   caller merges cycle statistics, counters, and sanitizer findings in
//!   that same order — so Q-tables, `max/min/mean_cycles`, fault
//!   attribution, and report ordering are bit-identical to
//!   [`ExecutionEngine::Serial`].
//!
//! The parallel engine is a plain `std::thread::scope` pool: the DPU
//! slice is cut into small chunks (several per worker, so a slow chunk
//! does not leave the other workers idle at paper scale), workers claim
//! chunks through one shared atomic cursor, and every chunk carries its
//! own result slots — scheduling order never reaches the output. The
//! one place it shows is which DPUs share a worker's accumulator slot,
//! so only folds whose result does not depend on order use slots.
//!
//! Wall-clock is the only observable difference between engines. The
//! guarantee is orthogonal to the execution *tier*
//! ([`ExecTier`](crate::config::ExecTier)): whether a DPU interprets
//! its kernel per-intrinsic (reference/fast) or runs the fused batched
//! sweep inside [`Dpu::execute`], the engine only ever sees the finished
//! per-DPU result, so every (tier, engine) pairing produces the same
//! bits and cycles — `tests/engine_determinism.rs` pins the full matrix.

use crate::config::PimConfig;
use crate::dpu::Dpu;
use crate::kernel::{Kernel, KernelError};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};

/// How DPU execution is scheduled on the host simulating it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecutionEngine {
    /// Execute DPUs one at a time on the calling thread. The reference
    /// engine: simplest possible schedule, no threads involved.
    Serial,
    /// Fan DPU execution out over `workers` scoped OS threads that claim
    /// small DPU chunks from a shared cursor. `workers == 0` means "use
    /// the host's available parallelism". Bit-identical to `Serial` by
    /// the ordered-merge construction described in the module docs.
    Threaded {
        /// Worker threads; `0` = available host parallelism.
        workers: usize,
    },
}

impl Default for ExecutionEngine {
    /// Threaded over the host's available parallelism.
    fn default() -> Self {
        ExecutionEngine::Threaded { workers: 0 }
    }
}

impl ExecutionEngine {
    /// The number of worker threads this engine would use for `dpus`
    /// DPUs: 1 for `Serial`, otherwise the configured worker count
    /// (defaulting to the host's available parallelism) clamped to the
    /// DPU count.
    pub fn workers_for(&self, dpus: usize) -> usize {
        match *self {
            ExecutionEngine::Serial => 1,
            ExecutionEngine::Threaded { workers } => {
                let requested = if workers == 0 {
                    host_threads()
                } else {
                    workers
                };
                requested.clamp(1, dpus.max(1))
            }
        }
    }

    /// This engine as one of `jobs` concurrent runs sharing a budget of
    /// `threads` host threads. The auto width (`Threaded { workers: 0 }`)
    /// becomes the per-job share `max(1, threads / jobs)`, and a share of
    /// 1 becomes `Serial`, so `jobs` runs never ask for more than
    /// `max(jobs, threads)` threads in total. `Serial` and an explicit
    /// `Threaded { workers: n }` are the caller's choice and are kept.
    pub fn within(self, threads: usize, jobs: usize) -> Self {
        match self {
            ExecutionEngine::Threaded { workers: 0 } => match threads / jobs.max(1) {
                0 | 1 => ExecutionEngine::Serial,
                share => ExecutionEngine::Threaded { workers: share },
            },
            explicit => explicit,
        }
    }

    /// Executes `kernel` on a selection of DPUs (given as mutable
    /// references, the whole set or a subset) and returns the results in
    /// selection order.
    pub(crate) fn execute_refs(
        &self,
        config: &PimConfig,
        dpus: &mut [&mut Dpu],
        kernel: &dyn Kernel,
    ) -> Vec<Result<u64, KernelError>> {
        let mut slots = vec![(); self.workers_for(dpus.len())];
        self.execute_chunks(&mut slots, dpus, |(), dpu| dpu.execute(kernel, config))
    }

    /// Shared scheduling core: runs `run` over every item of `items`
    /// (each item is one DPU's worth of work) and returns the results in
    /// item order.
    ///
    /// `slots` are per-worker accumulators: every call of `run` gets the
    /// slot of the worker running it, so a worker can fold each item's
    /// output while it is still in cache. At most `slots.len()` workers
    /// run. `Serial` (or a single worker or item) runs inline on the
    /// calling thread with slot 0. Otherwise the items are cut into
    /// chunks of `n.div_ceil(workers * 8)`, each paired with its own
    /// result slots; workers claim chunk indices from an atomic cursor
    /// until none are left, so which items share a slot depends on the
    /// schedule — only order-free folds belong in a slot. A worker's
    /// panic (a kernel bug) is re-raised on the caller with its original
    /// payload.
    ///
    /// # Panics
    ///
    /// Panics if `slots` is empty and `items` is not.
    pub(crate) fn execute_chunks<A: Send, T: Send>(
        &self,
        slots: &mut [A],
        items: &mut [T],
        run: impl Fn(&mut A, &mut T) -> Result<u64, KernelError> + Sync,
    ) -> Vec<Result<u64, KernelError>> {
        let n = items.len();
        let workers = self.workers_for(n).min(slots.len());
        if workers <= 1 || n <= 1 {
            return items
                .iter_mut()
                .map(|item| run(&mut slots[0], item))
                .collect();
        }

        // Empty slots; every slot is filled because the result chunks are
        // split with the same grain as the item chunks.
        let mut results: Vec<Option<Result<u64, KernelError>>> = vec![None; n];
        let grain = n.div_ceil(workers * 8);
        // Each chunk index is handed out once, so every lock is taken once,
        // by the chunk's only claimant, and never contended.
        let chunks: Vec<Mutex<ChunkTask<'_, T>>> = items
            .chunks_mut(grain)
            .zip(results.chunks_mut(grain))
            .map(Mutex::new)
            .collect();
        let cursor = AtomicUsize::new(0);
        let panicked = std::thread::scope(|scope| {
            let handles: Vec<_> = slots[..workers]
                .iter_mut()
                .map(|slot| {
                    let (chunks, cursor, run) = (&chunks, &cursor, &run);
                    scope.spawn(move || {
                        // `Relaxed`: the cursor only hands out indices; the
                        // chunk's data is published through its mutex.
                        let claim = || chunks.get(cursor.fetch_add(1, Ordering::Relaxed));
                        while let Some(chunk) = claim() {
                            // Taking leaves empty slices behind, so even a
                            // poisoned lock guards valid data.
                            let (item_chunk, out_chunk) = std::mem::take(
                                &mut *chunk.lock().unwrap_or_else(PoisonError::into_inner),
                            );
                            for (item, out) in item_chunk.iter_mut().zip(out_chunk) {
                                *out = Some(run(slot, item));
                            }
                        }
                    })
                })
                .collect();
            // Join every handle, so the scope never replaces a worker's
            // panic with its own generic one, and keep the first payload.
            handles
                .into_iter()
                .fold(None, |first, handle| first.or(handle.join().err()))
        });
        drop(chunks);
        if let Some(payload) = panicked {
            std::panic::resume_unwind(payload);
        }
        results
            .into_iter()
            .map(|slot| {
                slot.unwrap_or_else(|| Err(KernelError::Fault("engine: DPU not executed".into())))
            })
            .collect()
    }
}

/// The host's available parallelism (at least 1), resolved once per
/// process: the width of `Threaded { workers: 0 }`.
pub fn host_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| std::thread::available_parallelism().map_or(1, usize::from))
}

/// One unit of work: a chunk of DPUs (or DPU refs) paired with the result
/// slots it writes.
type ChunkTask<'a, T> = (&'a mut [T], &'a mut [Option<Result<u64, KernelError>>]);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::DpuContext;

    struct SkewKernel;
    impl Kernel for SkewKernel {
        fn run(&self, ctx: &mut DpuContext<'_>) -> Result<(), KernelError> {
            let id = ctx.dpu_id() as u64;
            ctx.charge_alu(5 * (id + 1));
            ctx.mram_write(0, &id.to_le_bytes())?;
            Ok(())
        }
    }

    fn fresh_dpus(config: &PimConfig, n: usize) -> Vec<Dpu> {
        (0..n).map(|id| Dpu::new(id, config)).collect()
    }

    #[test]
    fn serial_uses_one_worker() {
        assert_eq!(ExecutionEngine::Serial.workers_for(64), 1);
    }

    #[test]
    fn threaded_workers_clamp_to_dpu_count() {
        let e = ExecutionEngine::Threaded { workers: 16 };
        assert_eq!(e.workers_for(4), 4);
        assert_eq!(e.workers_for(64), 16);
        assert_eq!(e.workers_for(0), 1);
    }

    #[test]
    fn zero_workers_means_available_parallelism() {
        let e = ExecutionEngine::Threaded { workers: 0 };
        assert!(host_threads() >= 1);
        assert_eq!(e.workers_for(1_000), host_threads().min(1_000));
    }

    /// The width `engine` runs at on a launch too large to clamp it.
    fn width(engine: ExecutionEngine) -> usize {
        engine.workers_for(usize::MAX)
    }

    #[test]
    fn within_keeps_serial_and_explicit_widths() {
        for (threads, jobs) in [(1, 1), (8, 2), (2, 8), (64, 1)] {
            assert_eq!(
                ExecutionEngine::Serial.within(threads, jobs),
                ExecutionEngine::Serial
            );
            for workers in [1, 3, 16] {
                let explicit = ExecutionEngine::Threaded { workers };
                assert_eq!(explicit.within(threads, jobs), explicit);
            }
        }
    }

    #[test]
    fn within_splits_the_auto_width_between_jobs() {
        let auto = ExecutionEngine::Threaded { workers: 0 };
        assert_eq!(auto.within(8, 2), ExecutionEngine::Threaded { workers: 4 });
        assert_eq!(auto.within(8, 1), ExecutionEngine::Threaded { workers: 8 });
        assert_eq!(auto.within(9, 2), ExecutionEngine::Threaded { workers: 4 });
        // A share of one thread (or less) runs inline.
        assert_eq!(auto.within(2, 2), ExecutionEngine::Serial);
        assert_eq!(auto.within(3, 2), ExecutionEngine::Serial);
        assert_eq!(auto.within(2, 8), ExecutionEngine::Serial);
        assert_eq!(auto.within(1, 1), ExecutionEngine::Serial);
        assert_eq!(auto.within(8, 0), ExecutionEngine::Threaded { workers: 8 });
    }

    #[test]
    fn within_never_oversubscribes_the_budget() {
        let auto = ExecutionEngine::Threaded { workers: 0 };
        for threads in 1..=64 {
            for jobs in 1..=64 {
                let total = jobs * width(auto.within(threads, jobs));
                assert!(
                    total <= jobs.max(threads),
                    "{jobs} jobs on {threads} threads ask for {total}"
                );
            }
        }
    }

    #[test]
    fn default_engine_is_threaded_auto() {
        assert_eq!(
            ExecutionEngine::default(),
            ExecutionEngine::Threaded { workers: 0 }
        );
    }

    #[test]
    fn threaded_results_match_serial_in_index_order() {
        let config = PimConfig::builder().dpus(8).mram_bytes(1 << 16).build();
        let mut serial_dpus = fresh_dpus(&config, 7);
        let mut threaded_dpus = fresh_dpus(&config, 7);
        let serial = ExecutionEngine::Serial.execute_refs(&config, &mut serial_dpus.iter_mut().collect::<Vec<_>>(), &SkewKernel);
        let threaded = ExecutionEngine::Threaded { workers: 3 }.execute_refs(
            &config,
            &mut threaded_dpus.iter_mut().collect::<Vec<_>>(),
            &SkewKernel,
        );
        assert_eq!(serial, threaded);
        // Side effects (MRAM writes, counters) are also identical per DPU.
        for (s, t) in serial_dpus.iter().zip(threaded_dpus.iter()) {
            assert_eq!(s.mram().read_u32(0).ok(), t.mram().read_u32(0).ok());
            assert_eq!(s.last_counter(), t.last_counter());
        }
    }

    #[test]
    fn threaded_many_chunks_match_serial_in_index_order() {
        // 37 DPUs over 4 workers: grain 2, so 19 chunks with an uneven
        // tail, and per-DPU skew so workers claim chunks unevenly.
        let config = PimConfig::builder().dpus(64).mram_bytes(1 << 16).build();
        let mut serial_dpus = fresh_dpus(&config, 37);
        let mut threaded_dpus = fresh_dpus(&config, 37);
        let serial = ExecutionEngine::Serial.execute_refs(&config, &mut serial_dpus.iter_mut().collect::<Vec<_>>(), &SkewKernel);
        let threaded = ExecutionEngine::Threaded { workers: 4 }.execute_refs(
            &config,
            &mut threaded_dpus.iter_mut().collect::<Vec<_>>(),
            &SkewKernel,
        );
        assert_eq!(serial, threaded);
        for (s, t) in serial_dpus.iter().zip(threaded_dpus.iter()) {
            assert_eq!(s.mram().read_u32(0).ok(), t.mram().read_u32(0).ok());
            assert_eq!(s.last_counter(), t.last_counter());
        }
    }

    /// Runs `execute_chunks` over `n` items with `slots` slots, each
    /// slot recording the items it saw; returns the per-slot lists.
    fn slot_visits(engine: ExecutionEngine, n: usize, slots: usize) -> Vec<Vec<usize>> {
        let mut items: Vec<usize> = (0..n).collect();
        let mut seen = vec![Vec::new(); slots];
        let results = engine.execute_chunks(&mut seen, &mut items, |slot, item| {
            slot.push(*item);
            Ok(*item as u64)
        });
        let want: Vec<Result<u64, KernelError>> = (0..n as u64).map(Ok).collect();
        assert_eq!(results, want, "{engine:?}: results out of item order");
        seen
    }

    #[test]
    fn every_item_runs_once_in_exactly_one_slot() {
        for engine in [
            ExecutionEngine::Serial,
            ExecutionEngine::Threaded { workers: 1 },
            ExecutionEngine::Threaded { workers: 2 },
            ExecutionEngine::Threaded { workers: 3 },
            ExecutionEngine::Threaded { workers: 8 },
        ] {
            for n in [0, 1, 2, 7, 37, 100] {
                let width = engine.workers_for(n);
                let seen = slot_visits(engine, n, width);
                let mut all: Vec<usize> = seen.concat();
                all.sort_unstable();
                assert_eq!(all, (0..n).collect::<Vec<_>>(), "{engine:?}, {n} items");
                // Within a slot, items arrive in ascending chunk order.
                for slot in &seen {
                    assert!(slot.windows(2).all(|w| w[0] < w[1]), "{engine:?}: {slot:?}");
                }
            }
        }
    }

    #[test]
    fn serial_uses_only_slot_zero_and_threaded_at_most_its_width() {
        let seen = slot_visits(ExecutionEngine::Serial, 50, 4);
        assert_eq!(seen[0].len(), 50);
        assert!(seen[1..].iter().all(Vec::is_empty));
        // A single item runs inline as well.
        let seen = slot_visits(ExecutionEngine::Threaded { workers: 4 }, 1, 4);
        assert_eq!(seen[0], vec![0]);
        for workers in [2, 3] {
            let engine = ExecutionEngine::Threaded { workers };
            // Spare slots beyond the width stay untouched.
            let seen = slot_visits(engine, 64, workers + 2);
            assert!(seen[workers..].iter().all(Vec::is_empty), "{engine:?}");
            // Fewer slots than the width cap the workers.
            let seen = slot_visits(engine, 64, 1);
            assert_eq!(seen[0].len(), 64, "{engine:?}");
        }
    }

    #[test]
    fn a_panic_in_a_slot_run_reaches_the_caller_with_its_own_payload() {
        let engine = ExecutionEngine::Threaded { workers: 3 };
        let mut items: Vec<usize> = (0..40).collect();
        let mut slots = vec![0u64; 3];
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            engine.execute_chunks(&mut slots, &mut items, |sum, item| {
                if *item == 29 {
                    panic!("fold bug on item 29");
                }
                *sum += *item as u64;
                Ok(0)
            })
        }))
        .expect_err("the panic propagates");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"fold bug on item 29"));
    }

    struct PanicKernel;
    impl Kernel for PanicKernel {
        fn run(&self, ctx: &mut DpuContext<'_>) -> Result<(), KernelError> {
            if ctx.dpu_id() == 5 {
                panic!("kernel bug on DPU 5");
            }
            Ok(())
        }
    }

    #[test]
    fn worker_panic_reaches_the_caller_with_its_own_message() {
        let config = PimConfig::builder().dpus(16).mram_bytes(1 << 16).build();
        let mut dpus = fresh_dpus(&config, 16);
        let engine = ExecutionEngine::Threaded { workers: 3 };
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            engine.execute_refs(&config, &mut dpus.iter_mut().collect::<Vec<_>>(), &PanicKernel)
        }))
        .expect_err("the kernel panic propagates");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"kernel bug on DPU 5"));
    }
}
