//! What a finished run keeps: the heap bytes its `RunStats` holds once
//! `World::run` has returned.
//!
//! A run's outputs are summaries (SLO records, the attribution ledger,
//! utilization histories, metrics snapshots, flight dumps), so what they
//! hold should follow what they contain, not how the run recorded it.
//! This test counts every heap byte with its own global allocator and
//! bounds the bytes freed by dropping the `RunStats` of one cluster serve
//! with faults, attribution, 1 s metrics and a burn-rate alert, per
//! planned request. The file holds one test, so nothing else allocates
//! while it measures.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use strings_repro::harness::cli::parse_serve_args;

/// The system allocator, counting the bytes live.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            LIVE.fetch_add(layout.size(), Relaxed);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            LIVE.fetch_add(layout.size(), Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        unsafe { System.dealloc(p, layout) };
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, size: usize) -> *mut u8 {
        let q = unsafe { System.realloc(p, layout, size) };
        if !q.is_null() {
            LIVE.fetch_add(size, Relaxed);
            LIVE.fetch_sub(layout.size(), Relaxed);
        }
        q
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Heap bytes a finished run's `RunStats` may hold per planned request.
/// The serve below keeps 873 (flight dumps 42%, utilization histories
/// 21%, metrics 16%, the ledger 14%); the bound leaves 20% headroom. With
/// a GPU's bandwidth history kept apart from its occupancy history, each
/// change point's time stored twice, it kept 944. A recorder that keeps
/// every trace event, utilization samples at 16 bytes each and a metrics
/// row per series per snapshot keep 4,899.
const RETAINED_BYTES_PER_REQUEST: f64 = 1_050.0;

#[test]
fn a_finished_run_keeps_its_outputs_at_the_size_of_their_content() {
    let args = "--topology 8x4:c2050@calibrated --tenants 64 --apps GA,MC \
                --arrivals poisson:60rps --duration 20s --seed 7 \
                --faults partition@4s+2s:node3;degrade@6s+4s:node5x4;crash@9s:gid9 \
                --attribution --metrics-every 1s --burn-alert 500ms --alert-windows 2s:8s";
    let args: Vec<String> = args.split_whitespace().map(String::from).collect();
    let spec = parse_serve_args(&args).expect("valid serve args").spec;
    let planned = spec.plan_with_seed(spec.seed).len();
    let stats = spec.run();
    assert!(stats.failovers > 0, "the faults fail requests over");
    assert!(stats.metrics.is_some() && stats.alerts.is_some());
    let ledger = stats.trace.as_ref().and_then(|t| t.ledger.as_ref());
    assert!(ledger.is_some_and(|l| !l.requests.is_empty()));

    let live = LIVE.load(Relaxed);
    drop(stats);
    let retained = live - LIVE.load(Relaxed);
    let per_request = retained as f64 / planned as f64;
    eprintln!("RunStats retains {retained} bytes: {per_request:.1} per planned request ({planned} planned)");
    assert!(
        per_request <= RETAINED_BYTES_PER_REQUEST,
        "RunStats retains {per_request:.1} bytes per planned request \
         (bound {RETAINED_BYTES_PER_REQUEST}; {retained} bytes, {planned} requests)"
    );
}
