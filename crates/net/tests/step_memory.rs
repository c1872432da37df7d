//! What a sharded job holds on the heap, step by step.
//!
//! A counting global allocator keeps the live heap and its high-water mark.
//! A 3-iteration `Engine::run_with_backend` over `NetBackend::sharded` — 1 024
//! plain nodes, one worker — reads the peak of each step, from the call into
//! the backend to its return. A host that holds one step's artifacts at a
//! time peaks at the same height every step: the previous step's run is
//! released before the next one allocates, and the engine's estimates are
//! moved to it, not copied. A run kept past the next step's start shows as a
//! second and third step that peak higher than the first.
//!
//! The second assertion is the node driver's size: a plaintext node's slot
//! carries no real-crypto key material and no homomorphic push-sum state
//! inline, only a pointer to each.
//!
//! Recorded figures (release build): every step peaks at ≈ 10.3 MB and a
//! driver takes 800 B. A host that kept the previous step through the next
//! one, its estimates held three times, peaked at 10.8, 13.6 and 13.6 MB
//! (1.26× the first step), and a driver with the real-crypto state inline
//! took 1 336 B.
//!
//! One test only: the counter is process-wide, so a second test running
//! beside this one would be counted too.

use chiaroscuro::backend::ComputationBackend;
use chiaroscuro::config::ChiaroscuroConfig;
use chiaroscuro::noise::SlotLayout;
use chiaroscuro::rounds::{ComputationOutcome, CryptoContext};
use chiaroscuro::termination::Termination;
use chiaroscuro::{ChiaroscuroError, Engine};
use cs_net::driver::NodeDriver;
use cs_net::{NetBackend, ShardedConfig};
use cs_timeseries::datasets::blobs::{generate, BlobsConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The system allocator, keeping the live byte count and its peak.
struct Tracked;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// contract is the one the caller upholds; the counters touch no memory the
// allocator hands out.
unsafe impl GlobalAlloc for Tracked {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded — see the impl.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrink(layout.size());
        // SAFETY: forwarded — see the impl.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: forwarded — see the impl.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            shrink(layout.size());
            grow(new_size);
        }
        new
    }
}

#[global_allocator]
static ALLOCATOR: Tracked = Tracked;

/// A backend that reads the heap's peak over each step it forwards.
struct PerStepPeak {
    inner: NetBackend,
    peaks: Vec<usize>,
}

impl ComputationBackend for PerStepPeak {
    fn label(&self) -> &'static str {
        self.inner.label()
    }

    fn run_step(
        &mut self,
        config: &ChiaroscuroConfig,
        layout: &SlotLayout,
        contributions: &[Option<Vec<f64>>],
        crypto: &CryptoContext,
        step_seed: u64,
        rng: &mut StdRng,
    ) -> Result<ComputationOutcome, ChiaroscuroError> {
        PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
        let outcome = self
            .inner
            .run_step(config, layout, contributions, crypto, step_seed, rng);
        self.peaks.push(PEAK.load(Ordering::Relaxed));
        outcome
    }
}

const NODES: usize = 1024;
const ITERATIONS: usize = 3;

#[test]
fn every_step_peaks_at_the_first_steps_height() {
    let data = generate(
        &BlobsConfig {
            count: NODES,
            clusters: 5,
            len: 24,
            ..BlobsConfig::default()
        },
        &mut StdRng::seed_from_u64(5),
    );
    // Every iteration runs: no movement is small enough to stop the job.
    let config = ChiaroscuroConfig {
        k: 5,
        max_iterations: ITERATIONS,
        convergence_threshold: 0.0,
        termination: Termination::MovementThreshold,
        gossip_cycles: 30,
        ..ChiaroscuroConfig::demo_simulated()
    };
    let mut backend = PerStepPeak {
        inner: NetBackend::sharded(ShardedConfig {
            workers: 1,
            ..ShardedConfig::default()
        }),
        peaks: Vec::new(),
    };
    let out = Engine::new(config)
        .unwrap()
        .run_with_backend(&data.series, &mut backend)
        .unwrap();
    assert_eq!(out.iterations, ITERATIONS);

    let peaks = &backend.peaks;
    eprintln!("per-step peak live heap: {peaks:?} B");
    let first = peaks[0] as f64;
    for (step, &peak) in peaks.iter().enumerate() {
        let ratio = peak as f64 / first;
        assert!(
            (0.95..=1.05).contains(&ratio),
            "step {step} peaked at {peak} B, {ratio:.3}× the first step's {first} B"
        );
    }

    let driver = std::mem::size_of::<NodeDriver>();
    eprintln!("size_of::<NodeDriver>() = {driver} B");
    assert!(driver <= 900, "a node driver takes {driver} B");
}
