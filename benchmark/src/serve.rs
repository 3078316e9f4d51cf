//! The closed-loop serving phase: `T` client threads, each sending its
//! next call only after the previous one returned and was verified.
//!
//! Time is cut into windows. For each window every thread first
//! generates its ops (untimed), the threads meet at a barrier, and each
//! then issues calls until the window's deadline, with a burst of the
//! reference kernel (`calib`) before and after, untimed as well. A
//! window's throughput is the sum over threads of ops done by the
//! thread's own elapsed time.

use std::sync::Barrier;
use std::time::{Duration, Instant};

use blockdev::BlockDevice;
use volume::Op;

use crate::calib::Kernel;
use crate::span::{self, Kind};
use crate::workload::{Env, Generator, Group, OpSpec, Shape, GROUP};

/// Length of one window.
pub const WINDOW: Duration = Duration::from_millis(250);

#[derive(Debug, Default)]
pub struct ServeOut {
    /// Ops per second of each window.
    pub windows: Vec<f64>,
    /// Per window, the wall time of every call in microseconds. Each op is
    /// charged its call's time; all calls of a shape carry the same number
    /// of ops, so percentiles over calls are percentiles over ops.
    pub call_us: Vec<Vec<f64>>,
    pub ops: u64,
    pub reads: u64,
    pub writes: u64,
    pub failed: u64,
    /// Seconds spent generating ops, outside the timed intervals.
    pub gen_s: f64,
    pub gen_ops: u64,
    /// Per window, the machine's speed by the reference kernel.
    pub speeds: Vec<f64>,
}

impl ServeOut {
    /// Every window's figures scaled to the speed its bursts saw.
    pub fn normalised(mut self) -> Self {
        for ((rate, calls), speed) in self
            .windows
            .iter_mut()
            .zip(&mut self.call_us)
            .zip(&self.speeds)
        {
            *rate /= speed;
            calls.iter_mut().for_each(|us| *us *= speed);
        }
        self
    }
}

struct ThreadOut {
    call_us: Vec<f64>,
    ops: u64,
    reads: u64,
    writes: u64,
    failed: u64,
    elapsed_s: f64,
    gen_s: f64,
    gen_ops: u64,
    speed: f64,
}

/// Serves for about `duration`. `rate` is the expected ops per second and
/// is updated from each window, so the next window generates enough ops.
pub fn serve<B: BlockDevice>(
    env: &Env<B>,
    gens: &mut [Generator],
    kernels: &mut [Kernel],
    duration: Duration,
    rate: &mut f64,
) -> ServeOut {
    let mut out = ServeOut::default();
    let began = Instant::now();
    while began.elapsed() < duration {
        let per_thread = *rate * WINDOW.as_secs_f64() * 1.25 / env.threads as f64;
        let groups = ((per_thread / GROUP as f64).ceil() as usize).max(2);
        let barrier = Barrier::new(env.threads);
        let outs: Vec<ThreadOut> = std::thread::scope(|s| {
            let workers: Vec<_> = gens
                .iter_mut()
                .zip(kernels.iter_mut())
                .enumerate()
                .map(|(t, (gen, kernel))| {
                    let barrier = &barrier;
                    s.spawn(move || client(env, gen, kernel, t as u16, groups, barrier))
                })
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("client thread"))
                .collect()
        });
        let window: f64 = outs.iter().map(|o| o.ops as f64 / o.elapsed_s).sum();
        *rate = window;
        out.windows.push(window);
        out.speeds
            .push(outs.iter().map(|o| o.speed).sum::<f64>() / outs.len() as f64);
        out.call_us.push(Vec::new());
        for o in outs {
            out.call_us
                .last_mut()
                .expect("just pushed")
                .extend(o.call_us);
            out.ops += o.ops;
            out.reads += o.reads;
            out.writes += o.writes;
            out.failed += o.failed;
            out.gen_s += o.gen_s;
            out.gen_ops += o.gen_ops;
        }
    }
    out
}

fn client<B: BlockDevice>(
    env: &Env<B>,
    gen: &mut Generator,
    kernel: &mut Kernel,
    thread: u16,
    groups: usize,
    barrier: &Barrier,
) -> ThreadOut {
    let gen_began = Instant::now();
    let pool: Vec<Group> = (0..groups).map(|_| env.make_group(gen, thread)).collect();
    let mut out = ThreadOut {
        call_us: Vec::new(),
        ops: 0,
        reads: 0,
        writes: 0,
        failed: 0,
        elapsed_s: 0.0,
        gen_s: gen_began.elapsed().as_secs_f64(),
        gen_ops: (groups * GROUP) as u64,
        speed: 0.0,
    };
    barrier.wait();
    let before = kernel.burst();
    let began = Instant::now();
    let deadline = began + WINDOW;
    for group in pool {
        if Instant::now() >= deadline {
            break;
        }
        match env.spec.shape {
            Shape::Submit => submit_group(env, group, thread, &mut out),
            Shape::Single => single_ops(env, group, thread, &mut out),
            Shape::Recovery => unreachable!("no serving phase"),
        }
    }
    out.elapsed_s = began.elapsed().as_secs_f64();
    out.speed = (before + kernel.burst()) / 2.0;
    span::flush_local();
    out
}

/// What a read of `op.record`, about to be issued by `thread`, may
/// return at the oldest: the sequence acknowledged so far.
fn floor<B: BlockDevice>(env: &Env<B>, op: &OpSpec) -> u32 {
    if op.seq == 0 {
        env.model.acked(op.record)
    } else {
        0
    }
}

fn submit_group<B: BlockDevice>(env: &Env<B>, group: Group, thread: u16, out: &mut ThreadOut) {
    let floors: Vec<u32> = group.shadow.iter().map(|op| floor(env, op)).collect();
    let began = Instant::now();
    let results = span::root(Kind::CallServe, || env.mgr.submit(group.ops));
    out.call_us.push(began.elapsed().as_secs_f64() * 1e6);
    out.ops += group.shadow.len() as u64;
    // Writes of this call, in program order: a later read of the same
    // record in the same call must see the latest of them.
    let mut written: Vec<OpSpec> = Vec::new();
    if results.len() != group.shadow.len() {
        out.failed += group.shadow.len() as u64;
        return;
    }
    for ((op, result), floor) in group.shadow.iter().zip(results).zip(floors) {
        let ok = match (op.seq, result) {
            (0, Ok(Some(buf))) => {
                out.reads += 1;
                if env.model.owner(op.record) == thread {
                    let expect = written
                        .iter()
                        .rev()
                        .find(|w| w.record == op.record)
                        .map_or(floor, |w| w.seq);
                    env.model.check_exact(&buf, op.record, expect)
                } else {
                    env.model.check_at_least(&buf, op.record, floor)
                }
            }
            (seq, Ok(None)) if seq != 0 => {
                out.writes += 1;
                written.push(*op);
                true
            }
            _ => false,
        };
        out.failed += u64::from(!ok);
    }
    for w in written {
        env.model.ack(w.record, w.seq);
    }
}

fn single_ops<B: BlockDevice>(env: &Env<B>, group: Group, thread: u16, out: &mut ThreadOut) {
    for (op, call) in group.shadow.iter().zip(group.ops) {
        let floor = floor(env, op);
        let began = Instant::now();
        let ok = match call {
            Op::Read { volume, record } => {
                let got = span::root(Kind::CallServe, || env.mgr.read_record(volume, record));
                out.call_us.push(began.elapsed().as_secs_f64() * 1e6);
                out.reads += 1;
                got.is_ok_and(|buf| {
                    if env.model.owner(op.record) == thread {
                        env.model.check_exact(&buf, op.record, floor)
                    } else {
                        env.model.check_at_least(&buf, op.record, floor)
                    }
                })
            }
            Op::Write {
                volume,
                record,
                data,
            } => {
                let done = span::root(Kind::CallServe, || {
                    env.mgr.write_record(volume, record, &data)
                });
                out.call_us.push(began.elapsed().as_secs_f64() * 1e6);
                out.writes += 1;
                if done.is_ok() {
                    env.model.ack(op.record, op.seq);
                }
                done.is_ok()
            }
        };
        out.ops += 1;
        out.failed += u64::from(!ok);
    }
}
