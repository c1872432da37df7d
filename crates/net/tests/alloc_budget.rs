//! The sharded executor's message path against an allocation budget.
//!
//! Time on a shared box is not gateable; counts are. A counting global
//! allocator brackets one plaintext step — 512 nodes × 20 cycles, 8 shards,
//! one worker: 10 240 pushes of 125 slots — and the same step
//! with a push quota of zero, which builds the same nodes and concludes the
//! same way but gossips nothing. The difference is what the message path
//! allocated: the first buffer of each node, the few splits that found
//! their shard's pool empty, and the growth of the shards' event queues,
//! pools and mailboxes to their working size.
//!
//! Recorded figures (they repeat to the digit, run after run — since a
//! metrics snapshot sizes its bucket vectors before filling them; growing
//! them by how many buckets the wall-clock `exec.epoch.wait_ns` touched
//! made one run in six or seven count 2 more or fewer — and since only the
//! step's own threads are counted: the harness's main thread books the test
//! it has just spawned with 4 allocations of its own, and about one run in
//! fifteen they landed inside the first bracket):
//!
//! * before the push buffers were recycled: **11 281** allocations for the
//!   10 240 messages, 1.10 per message — a buffer per push, plus a mailbox
//!   queue regrown from empty per (shard, epoch);
//! * recycled push buffers on a binary heap of events: **932**, one per 11
//!   messages, 649 of them push buffers (`exec.buffers.allocated`: 512
//!   first splits and 137 that found neither a spare nor a pooled buffer);
//! * now, on the calendar queue: **1 066** — the same 649 buffers, and the
//!   calendar's bucket vectors, payload slab and side heap growing to
//!   their working size once per shard. Past that the windows allocate
//!   next to nothing: besides push buffers, 40 cycles count 9 more than
//!   20 and 80 cycles 6 more than 40 (recycled bucket vectors still
//!   growing to the largest bucket), where the heap counted 3 and 3.
//!
//! One test only: a thread born while the counter is on counts, so the
//! threads of a second test running beside this one could be counted too.

use chiaroscuro::config::ChiaroscuroConfig;
use chiaroscuro::noise::SlotLayout;
use chiaroscuro::rounds::CryptoContext;
use cs_net::{run_step_sharded, ShardedConfig, StepRun};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// The system allocator, counting calls while [`COUNTING`] is set — on the
/// step's threads only.
struct Counted;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// Whose allocations count. The test's thread enrols itself; a pool worker
/// is born and joined while the counter is on, so it counts from its first
/// allocation. A thread that allocates while the counter is off — the
/// harness's main thread, whose bookkeeping lands wherever the scheduler
/// puts it — never counts again.
#[derive(Clone, Copy)]
enum Role {
    Unseen,
    Enrolled,
    Outsider,
}

thread_local! {
    static ROLE: Cell<Role> = const { Cell::new(Role::Unseen) };
}

fn count() {
    let counting = COUNTING.load(Ordering::Relaxed);
    ROLE.with(|role| match (role.get(), counting) {
        (Role::Unseen | Role::Enrolled, true) => {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        (Role::Unseen, false) => role.set(Role::Outsider),
        _ => {}
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// contract is the one the caller upholds; the counter touches no memory the
// allocator hands out.
unsafe impl GlobalAlloc for Counted {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded — see the impl.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded — see the impl.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: forwarded — see the impl.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counted = Counted;

const NODES: usize = 512;
const CYCLES: usize = 20;
const LAYOUT: SlotLayout = SlotLayout {
    k: 5,
    series_len: 24,
};

/// One plaintext step with a push quota of `cycles`, and how many
/// allocations it made from entry to return.
fn counted_step(cycles: usize, shards: usize, nodes: usize) -> (StepRun, u64) {
    let config = ChiaroscuroConfig {
        k: LAYOUT.k,
        gossip_cycles: cycles,
        ..ChiaroscuroConfig::demo_simulated()
    };
    let crypto = CryptoContext::from_config(&config, &mut StdRng::seed_from_u64(1)).unwrap();
    let contributions: Vec<_> = (0..nodes)
        .map(|i| Some(vec![i as f64; LAYOUT.total()]))
        .collect();
    let sharded = ShardedConfig {
        shards,
        workers: 1,
        ..ShardedConfig::default()
    };
    ROLE.with(|role| role.set(Role::Enrolled));
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    COUNTING.store(true, Ordering::Relaxed);
    let run = run_step_sharded(&config, &LAYOUT, &contributions, &crypto, 42, &sharded, &[]);
    COUNTING.store(false, Ordering::Relaxed);
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    (run.unwrap(), allocations)
}

#[test]
fn the_message_path_allocates_less_than_once_per_four_messages() {
    let measure = || {
        let (idle, idle_allocations) = counted_step(0, 8, NODES);
        assert_eq!(idle.snapshot.messages(), 0);
        let (run, allocations) = counted_step(CYCLES, 8, NODES);
        let buffers = run.metrics.counter("exec.buffers.allocated");
        // A debug build encodes every cross-shard send once, to hold the
        // computed frame length to the codec's: one allocation each, not
        // the message path's.
        let encoded = match cfg!(debug_assertions) {
            true => run.metrics.counter("exec.deliveries.cross_shard"),
            false => 0,
        };
        (
            run.snapshot.messages(),
            allocations - idle_allocations - encoded,
            buffers,
        )
    };
    let (messages, allocations, buffers) = measure();
    assert_eq!(messages, (NODES * CYCLES) as u64);
    assert!(
        allocations * 4 < messages,
        "{allocations} allocations for {messages} messages"
    );
    // Every node allocates its first buffer; after that only a split that
    // finds its shard's pool dry does.
    assert!(
        (NODES as u64..=2 * NODES as u64).contains(&buffers),
        "{buffers} push buffers for {NODES} nodes"
    );
    assert_eq!(
        measure(),
        (messages, allocations, buffers),
        "the count must repeat to the digit"
    );
    eprintln!("{messages} messages, {allocations} allocations, {buffers} push buffers");

    // The benchmark's `sharded_plain_4k` shape — 4 096 nodes on 64 shards,
    // 30 cycles: at most two buffers per node where every push used to
    // allocate one (30 per node).
    let (run, _) = counted_step(30, 64, 4096);
    let buffers = run.metrics.counter("exec.buffers.allocated");
    assert_eq!(run.snapshot.messages(), 4096 * 30);
    assert!(buffers <= 2 * 4096, "{buffers} push buffers at 4 096 nodes");
    eprintln!("4096 nodes: {buffers} push buffers");
}
