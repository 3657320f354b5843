//! Machine-speed calibration: a fixed workload built from the standard
//! library only, timed now and then through a run. Its best time says
//! how fast the machine ran at its fastest during the run, and host times
//! are scaled by it to the reference machine (README.md, "Noise").
//!
//! The workload shares none of the simulator's code, so a change to the
//! simulator cannot move it; it resembles the simulator's hot path — a
//! binary-heap event queue, hash-map state, small allocations and dynamic
//! dispatch — so a neighbour that slows one slows the other too. It
//! runs on a thread of its own, which the C allocator gives an arena of
//! its own: on the main thread's arena, fragmented by a simulation's 350
//! MB of frees, the same work takes 1.4–2× as long, and a change to the
//! simulator's heap would move the calibration.

use std::cmp::Reverse;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::sync::mpsc::{self, Receiver, Sender};
use std::thread::{self, JoinHandle};
use std::time::Instant;

/// Best calibration time on the reference machine, a 2-vCPU KVM guest
/// on an Intel Xeon (Sapphire Rapids, 2 MiB L2 per core), in a quiet
/// stretch.
const REFERENCE_S: f64 = 0.070;

/// How much harder a slow stretch hits the simulator than the
/// calibration, as the exponent on the calibration's slowdown: in
/// stretches that slowed `fig12_batch` 1.9–2.0×, the calibration slowed
/// 1.4–1.6×. Over 55 runs of three workloads across such stretches, 1.5
/// cut the spread of the scaled host time on every workload (README.md,
/// "Noise").
const SENSITIVITY: f64 = 1.5;

/// Calibrate once per this many seconds, on average: the calibration
/// costs about a sixth of a run.
const EVERY_S: f64 = 0.5;

/// Samples taken in a row at most, when a long simulation run kept the
/// calibration waiting.
const MAX_IN_A_ROW: usize = 4;

/// Deterministic hashing, so every calibration does the same work.
type Map<K, V> = HashMap<K, V, BuildHasherDefault<DefaultHasher>>;

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// A bounded priority queue beside a hash map, with a small allocation
/// per pop.
fn heap_and_map() -> usize {
    let mut heap = BinaryHeap::new();
    let mut map: Map<u64, u64> = Map::default();
    let mut x = 12345;
    for i in 0..200_000 {
        let r = xorshift(&mut x);
        heap.push(Reverse(r % 1_000_000));
        map.insert(r % 100_000, i);
        if heap.len() > 5000 {
            let Reverse(v) = heap.pop().expect("the heap is not empty");
            black_box(map.get(&v));
            black_box(vec![v; 8]);
        }
    }
    heap.len() + map.len()
}

trait Actor {
    fn fire(&mut self, now: u64, rng: &mut u64, out: &mut Vec<(u64, usize)>);
}

/// Schedules its own next firing and pokes its server.
struct Source {
    id: usize,
}

/// Queues what it is poked with and sometimes schedules a completion.
struct Server {
    id: usize,
    busy_until: u64,
    queue: VecDeque<u64>,
}

impl Actor for Source {
    fn fire(&mut self, now: u64, rng: &mut u64, out: &mut Vec<(u64, usize)>) {
        out.push((now + xorshift(rng) % 1000, self.id));
        out.push((now + xorshift(rng) % 300, self.id + 1));
    }
}

impl Actor for Server {
    fn fire(&mut self, now: u64, rng: &mut u64, out: &mut Vec<(u64, usize)>) {
        self.queue.push_back(now);
        if self.queue.len() > 16 {
            self.queue.pop_front();
        }
        if self.busy_until <= now {
            self.busy_until = now + xorshift(rng) % 200;
            if xorshift(rng).is_multiple_of(4) {
                out.push((self.busy_until, self.id));
            }
        }
    }
}

/// A discrete-event loop over boxed actors: 300k events.
fn actors() -> u64 {
    let mut actors: Vec<Box<dyn Actor>> = (0..256)
        .map(|id| -> Box<dyn Actor> {
            if id % 2 == 0 {
                Box::new(Source { id })
            } else {
                Box::new(Server {
                    id,
                    busy_until: 0,
                    queue: VecDeque::new(),
                })
            }
        })
        .collect();
    let mut queue: BinaryHeap<Reverse<(u64, usize)>> = (0..256)
        .step_by(2)
        .map(|id| Reverse((id as u64, id)))
        .collect();
    let mut rng = 42;
    let mut out = Vec::new();
    let mut events = 0;
    while let Some(Reverse((now, id))) = queue.pop() {
        events += 1;
        if events > 300_000 {
            break;
        }
        actors[id].fire(now, &mut rng, &mut out);
        queue.extend(out.drain(..).map(Reverse));
    }
    events
}

/// A hash map of growing vectors, drained as they fill, beside a
/// priority queue of its keys.
fn map_of_vecs() -> u64 {
    let mut map: Map<u64, Vec<u64>> = Map::default();
    let mut heap = BinaryHeap::new();
    let mut x = 777;
    let mut acc = 0;
    for i in 0..150_000 {
        let r = xorshift(&mut x);
        let key = r % 60_000;
        let v = map.entry(key).or_default();
        v.push(i);
        if v.len() > 6 {
            acc += v.iter().sum::<u64>();
            v.clear();
        }
        heap.push(Reverse((r >> 20, key)));
        if heap.len() > 20_000 {
            let Reverse((_, k)) = heap.pop().expect("the heap is not empty");
            acc += map.get(&k).map_or(0, |v| v.len() as u64);
        }
    }
    acc
}

/// The calibration workload's three parts.
const PARTS: usize = 3;

/// One timing of each part of the calibration workload, in seconds.
fn time_parts() -> [f64; PARTS] {
    fn time<R>(part: fn() -> R) -> f64 {
        let start = Instant::now();
        black_box(part());
        start.elapsed().as_secs_f64()
    }
    [time(heap_and_map), time(actors), time(map_of_vecs)]
}

/// The calibration thread and the samples of one run. Dropping it stops
/// the thread and waits for it.
pub struct Calibration {
    requests: Option<Sender<()>>,
    times: Receiver<[f64; PARTS]>,
    worker: Option<JoinHandle<()>>,
    /// Each part's best time, in seconds.
    best: [f64; PARTS],
    samples: usize,
    last: Option<Instant>,
}

impl Calibration {
    /// Start the calibration thread; it waits for [`Calibration::sample`].
    pub fn new() -> Calibration {
        let (requests, asked) = mpsc::channel::<()>();
        let (answer, times) = mpsc::channel();
        let worker = thread::Builder::new()
            .name("calibration".into())
            .spawn(move || {
                for () in asked {
                    if answer.send(time_parts()).is_err() {
                        break;
                    }
                }
            })
            .expect("the calibration thread starts");
        Calibration {
            requests: Some(requests),
            times,
            worker: Some(worker),
            best: [f64::INFINITY; PARTS],
            samples: 0,
            last: None,
        }
    }

    /// Time the calibration workload on its thread and wait for it, once
    /// for every [`EVERY_S`] since it last ran (at least once, at most
    /// [`MAX_IN_A_ROW`] times); not at all if it ran less than
    /// [`EVERY_S`] ago.
    pub fn sample(&mut self) {
        let due = self
            .last
            .map_or(1.0, |t| t.elapsed().as_secs_f64() / EVERY_S);
        for _ in 0..(due as usize).min(MAX_IN_A_ROW) {
            let sent = self.requests.as_ref().map(|r| r.send(()));
            let parts = match (sent, self.times.recv()) {
                (Some(Ok(())), Ok(parts)) => parts,
                _ => panic!("the calibration thread stopped"),
            };
            for (best, s) in self.best.iter_mut().zip(parts) {
                *best = best.min(s);
            }
            self.samples += 1;
        }
        if due >= 1.0 {
            self.last = Some(Instant::now());
        }
    }

    /// The best calibration time, in seconds: each part's best, summed.
    pub fn best_s(&self) -> f64 {
        self.best.iter().sum()
    }

    pub fn samples(&self) -> usize {
        self.samples
    }

    /// The factor that scales a host time measured in this run to the
    /// reference machine.
    pub fn scale(&self) -> f64 {
        (REFERENCE_S / self.best_s()).powf(SENSITIVITY)
    }
}

impl Drop for Calibration {
    fn drop(&mut self) {
        // Closing the request channel ends the thread's loop.
        self.requests = None;
        if let Some(worker) = self.worker.take() {
            let _ = worker.join();
        }
    }
}
