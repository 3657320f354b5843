//! Host-side measurement: a counting allocator for the traced pass,
//! `/proc` readers for peak RSS and steal time, quartiles, and the
//! benchmark's own spans around each call into the simulator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicIsize, Ordering::Relaxed};
use std::time::Instant;

/// The process allocator: [`System`], plus live and peak byte counts
/// while counting is switched on. Counting is on in the traced pass only;
/// otherwise each call pays one relaxed load.
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);

#[inline]
fn count(delta: isize) {
    if COUNTING.load(Relaxed) {
        let live = LIVE.fetch_add(delta, Relaxed) + delta;
        PEAK.fetch_max(live, Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// the memory handed out carries `System`'s guarantees; the counters only
// read the sizes (a `Layout` size never exceeds `isize::MAX`).
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller meets `GlobalAlloc::alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            count(layout.size() as isize);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller meets `GlobalAlloc::alloc_zeroed`'s contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            count(layout.size() as isize);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, hence from `System`,
        // with this `layout`.
        unsafe { System.dealloc(ptr, layout) };
        count(-(layout.size() as isize));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as for `dealloc`, and the caller meets `realloc`'s
        // contract on `new_size`.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            count(new_size as isize - layout.size() as isize);
        }
        p
    }
}

/// Start counting live heap bytes from zero.
pub fn start_counting() {
    LIVE.store(0, Relaxed);
    PEAK.store(0, Relaxed);
    COUNTING.store(true, Relaxed);
}

/// Stop counting; the counters keep their last values.
pub fn stop_counting() {
    COUNTING.store(false, Relaxed);
}

/// Heap bytes live now, counted from [`start_counting`].
pub fn live_bytes() -> isize {
    LIVE.load(Relaxed)
}

/// Restart the high-water mark at the current live count.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Relaxed), Relaxed);
}

/// High-water mark of live heap bytes since the last [`reset_peak`].
pub fn peak_bytes() -> isize {
    PEAK.load(Relaxed)
}

/// This process's peak resident set size (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// Machine-wide CPU time from the `cpu` line of `/proc/stat`, in ticks.
#[derive(Clone, Copy)]
pub struct CpuTimes {
    /// user + nice + system + irq + softirq + steal: time something
    /// wanted a CPU.
    busy: u64,
    steal: u64,
}

impl CpuTimes {
    /// Read the counters now; `None` where `/proc/stat` is unavailable.
    pub fn read() -> Option<CpuTimes> {
        let stat = std::fs::read_to_string("/proc/stat").ok()?;
        let f: Vec<u64> = stat
            .lines()
            .next()?
            .strip_prefix("cpu ")?
            .split_whitespace()
            .map(|x| x.parse().ok())
            .collect::<Option<_>>()?;
        let steal = *f.get(7)?;
        Some(CpuTimes {
            busy: f[0] + f[1] + f[2] + f[5] + f[6] + steal,
            steal,
        })
    }

    /// Share of the CPU time wanted between `self` and `later` that the
    /// hypervisor gave to someone else.
    pub fn steal_share(self, later: CpuTimes) -> f64 {
        let busy = later.busy.saturating_sub(self.busy);
        if busy == 0 {
            return 0.0;
        }
        later.steal.saturating_sub(self.steal) as f64 / busy as f64
    }
}

/// `(q1, median, q3)` of `values`, with the quartiles cut as Python's
/// `statistics.quantiles(values, n=4)` cuts them (exclusive method).
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "quartiles of no values");
    let median = if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    };
    if n == 1 {
        return (v[0], v[0], v[0]);
    }
    let cut = |i: usize| {
        let m = i * (n + 1);
        let j = (m / 4).clamp(1, n - 1);
        let delta = m as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), median, cut(3))
}

/// One call into the simulator, timed from outside.
struct Span {
    run: u64,
    parent: Option<usize>,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
}

/// The benchmark's span log: kept in memory, written out once at the end.
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Spans {
    /// An empty log whose clock starts now.
    pub fn new() -> Spans {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open span `name` of run `run` under `parent`; returns its id.
    pub fn open(&mut self, run: u64, parent: Option<usize>, name: &'static str) -> usize {
        let now = self.now_ns();
        self.spans.push(Span {
            run,
            parent,
            name,
            start_ns: now,
            end_ns: now,
        });
        self.spans.len() - 1
    }

    /// Close span `id`; returns its duration in seconds.
    pub fn close(&mut self, id: usize) -> f64 {
        let now = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = now;
        (span.end_ns - span.start_ns) as f64 / 1e9
    }

    /// One JSON object per span, in opening order.
    pub fn jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"run\":{},\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.run, s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}
