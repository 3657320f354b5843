//! What a run holds while it runs: the executive's state follows the
//! requests in flight, not the run length.
//!
//! A request holds an app slot from its start until the event that
//! finished it has been dispatched, and a device job carries its own
//! submit time, so neither grows with the requests a run has finished.
//! This test runs one faulted 8x4 serve at T and 4T (a partition, a
//! backend crash and a node loss, so the abort, failover and replay paths
//! all free slots). It checks the app-slot high-water count, and it
//! counts every heap byte with its own global allocator to bound the peak
//! heap a run holds beyond its plan and the `RunStats` it returns. The
//! file holds one test, so nothing else allocates while it measures.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use strings_repro::harness::cli::parse_serve_args;
use strings_repro::harness::world::World;

/// The system allocator, counting the bytes live and their peak.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// the `GlobalAlloc` contract holds as it does for `System`; the counters
// only observe sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `alloc_zeroed`'s contract for `layout`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        // SAFETY: `p` came from this allocator, that is from `System`,
        // with `layout`.
        unsafe { System.dealloc(p, layout) };
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, size: usize) -> *mut u8 {
        // SAFETY: `p` came from `System` with `layout`, and the caller
        // upholds `realloc`'s contract for `size`.
        let q = unsafe { System.realloc(p, layout, size) };
        if !q.is_null() {
            // Count the old and new blocks as both live: a moving realloc
            // holds them together while it copies.
            grew(size);
            LIVE.fetch_sub(layout.size(), Relaxed);
        }
        q
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Server threads per tenant, and tenants: the requests that can run at
/// once.
const THREADS: u64 = 2;
const TENANTS: u64 = 32;

/// Bound on the working heap's growth from T to 4T, per extra planned
/// request (see the test): the 51.7 bytes measured plus a 22% margin.
const WORKING_BYTES_PER_EXTRA_REQUEST: f64 = 63.0;

/// What one serve of `seconds` held.
struct Held {
    planned: u64,
    peak_app_slots: u64,
    /// Peak heap during `run` beyond the heap before it, less the plan
    /// and the returned `RunStats`.
    working: usize,
}

fn serve(seconds: u64) -> Held {
    let args = format!(
        "--topology 8x4:c2050@calibrated --tenants {TENANTS} --server-threads {THREADS} \
         --apps GA,MC --arrivals poisson:60rps --duration {seconds}s --seed 5 \
         --faults partition@1s+1s:node3;crash@2s:gid9;nodeloss@3s:node6"
    );
    let args: Vec<String> = args.split_whitespace().map(String::from).collect();
    let spec = parse_serve_args(&args).expect("valid serve args").spec;
    let before = LIVE.load(Relaxed);
    let plan = spec.plan_with_seed(spec.seed);
    let plan_bytes = LIVE.load(Relaxed) - before;
    let planned = plan.len() as u64;
    // From here on, what `ServeSpec::run` does after planning.
    PEAK.store(LIVE.load(Relaxed), Relaxed);
    let mut world = World::new(
        &spec.topology,
        spec.device_cfg,
        spec.stack,
        spec.scope,
        spec.costs,
        plan,
        None,
    );
    world.set_seed(spec.seed);
    world.set_admission(spec.tenants, spec.admission);
    world.enable_request_log();
    world.set_fault_plan(&spec.faults);
    let stats = world.run();
    let peak = PEAK.load(Relaxed) - before;
    let retained = LIVE.load(Relaxed) - before;
    assert!(
        stats.failovers > 0,
        "{seconds} s: the crash fails requests over"
    );
    assert!(
        stats.failed_requests > 0,
        "{seconds} s: the node loss aborts"
    );
    let working = peak - plan_bytes - retained;
    eprintln!(
        "{seconds} s: {planned} planned, {} app slots, peak {peak} B = plan {plan_bytes} \
         + RunStats {retained} + working {working} ({:.1} per planned request)",
        stats.peak_app_slots,
        working as f64 / planned as f64
    );
    Held {
        planned,
        peak_app_slots: stats.peak_app_slots,
        working,
    }
}

#[test]
fn run_state_does_not_grow_with_run_length() {
    let (short, long) = (serve(5), serve(20));
    assert!(
        long.planned >= 3 * short.planned,
        "4T plans ~4x the requests"
    );
    assert_eq!(
        short.peak_app_slots, long.peak_app_slots,
        "app slots follow the requests in flight, not the run length"
    );
    assert!(
        long.peak_app_slots <= TENANTS * THREADS,
        "at most one slot per server thread: {}",
        long.peak_app_slots
    );
    // Going from T to 4T the working heap may grow only by what a run
    // holds per planned request by design (the arrival cursor's 16 bytes,
    // the flight recorder's 8-byte cause link and the 4-byte app-slot
    // index) and by the utilization histories, which follow virtual time,
    // grow by an eighth at a time and are handed over at their content's
    // size. This serve grows by ~52 bytes per extra planned request; when
    // the histories doubled it grew ~120, and with an app slot and a
    // submit-time entry per planned request it grew ~375.
    let extra =
        (long.working as f64 - short.working as f64) / (long.planned - short.planned) as f64;
    assert!(
        extra <= WORKING_BYTES_PER_EXTRA_REQUEST,
        "the working heap grew with run length: {extra:.1} bytes per extra planned request \
         ({} at T, {} at 4T; bound {WORKING_BYTES_PER_EXTRA_REQUEST})",
        short.working,
        long.working
    );
}
