//! The reference kernel: how fast this machine is running right now.
//!
//! The sandbox is a few cores of a shared host, and for seconds to minutes
//! at a time everything that touches memory runs 10-30 % slower on it. No
//! steal time is reported, a spinning thread sees no gaps, and a loop that
//! stays in registers keeps its speed to within a percent or two: it is
//! the caches and the memory the cores share with other tenants that slow
//! down. A run that falls into such a stretch is uniformly slow, so no
//! statistic taken over its own windows can remove it. What can is a
//! second measurement taken at the same moment. Every timed interval of
//! the untraced pass is bracketed by short bursts of a fixed kernel, run on
//! all client threads at once, and the interval's figures are scaled to
//! the speed the bursts saw (`speed` = burst rate / `NOMINAL`). A reported
//! second is therefore a second of a machine on which the kernel runs at
//! `NOMINAL`; `machine_speed` in the `detail` line turns it back.
//!
//! The kernel is the benchmark's own and calls no product code, so a
//! product change cannot move it. It mixes what the product's hot paths
//! do: XOR of one 4 KiB block into another within a cache-sized set, a
//! 512 B copy from a set far larger than the L2 cache, a dependent
//! multiply chain, and a small allocation. In two sets of fifteen 10 s
//! runs per workload taken in noisy hours, the run-to-run spread (IQR /
//! median) of `rebuild_mib_per_s` fell from 0.07-0.25 unscaled to
//! 0.04-0.12 scaled and that of `ops_per_s` from 0.05-0.18 to 0.02-0.12;
//! the degraded-read figures react about half as strongly as the kernel
//! does and gain less (0.05-0.24 to 0.05-0.11; README, "Decisions"). Kernels
//! that stream from a large buffer instead over-react two- to fourfold and
//! made every figure worse.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Kernel iterations per second per thread on the sandbox the baseline was
/// taken on, in its fast state. Only a scale: it sets what "one second"
/// means in the reported figures and cancels out of every comparison.
const NOMINAL: f64 = 2_200_000.0;

/// Length of the timed part of one burst, and of the untimed part before
/// it that brings the kernel's own blocks back into the cache the workload
/// has just filled with its own data.
const BURST: Duration = Duration::from_millis(3);
const WARM: Duration = Duration::from_millis(1);

const BLOCK: usize = 4096;
const HOT_BLOCKS: usize = 64;
const COLD_BYTES: usize = 16 << 20;
const RECORD: usize = 512;

/// One thread's kernel state.
pub struct Kernel {
    hot: Vec<u8>,
    cold: Vec<u8>,
    state: u64,
}

impl Kernel {
    fn new(thread: u64) -> Self {
        let mut state = 0x9e37_79b9_7f4a_7c15u64 ^ (thread + 1).wrapping_mul(0xd134_2543_de82_ef95);
        let mut fill = |n: usize| -> Vec<u8> {
            (0..n / 8)
                .flat_map(|_| {
                    state = step(state);
                    state.to_le_bytes()
                })
                .collect()
        };
        let hot = fill(HOT_BLOCKS * BLOCK);
        let cold = fill(COLD_BYTES);
        Self { hot, cold, state }
    }

    /// One kernel per client thread.
    pub fn all(threads: usize) -> Vec<Kernel> {
        (0..threads as u64).map(Kernel::new).collect()
    }

    fn iterate(&mut self) {
        self.state = step(self.state);
        let s = self.state;
        let i = (s >> 8) as usize % HOT_BLOCKS;
        let j = (i + 1 + (s >> 20) as usize % (HOT_BLOCKS - 1)) % HOT_BLOCKS;
        let (src, dst) = if i < j {
            let (a, b) = self.hot.split_at_mut(j * BLOCK);
            (&a[i * BLOCK..(i + 1) * BLOCK], &mut b[..BLOCK])
        } else {
            let (a, b) = self.hot.split_at_mut(i * BLOCK);
            (&b[..BLOCK], &mut a[j * BLOCK..(j + 1) * BLOCK])
        };
        for (d, s) in dst.chunks_exact_mut(8).zip(src.chunks_exact(8)) {
            let x = u64::from_le_bytes(d.try_into().expect("8 bytes"))
                ^ u64::from_le_bytes(s.try_into().expect("8 bytes"));
            d.copy_from_slice(&x.to_le_bytes());
        }
        let at = (s >> 16) as usize % (COLD_BYTES / RECORD) * RECORD;
        dst[..RECORD].copy_from_slice(&self.cold[at..at + RECORD]);
        let mut h = s;
        for w in dst[..256].chunks_exact(8) {
            h = (h ^ u64::from_le_bytes(w.try_into().expect("8 bytes")))
                .wrapping_mul(0x0000_0100_0000_01b3)
                .rotate_left(23);
        }
        let copy = black_box(dst[..RECORD].to_vec());
        self.state ^= h ^ copy[0] as u64;
    }

    /// Iterates for at least `length`; `(iterations, seconds)`.
    fn run(&mut self, length: Duration) -> (u64, f64) {
        let began = Instant::now();
        let mut done = 0u64;
        loop {
            for _ in 0..16 {
                self.iterate();
            }
            done += 16;
            let elapsed = began.elapsed();
            if elapsed >= length {
                return (done, elapsed.as_secs_f64());
            }
        }
    }

    /// Runs the kernel for `WARM + BURST` and returns its speed over the
    /// `BURST`: iterations per second over `NOMINAL`.
    pub fn burst(&mut self) -> f64 {
        self.run(WARM);
        let (done, seconds) = self.run(BURST);
        done as f64 / seconds / NOMINAL
    }
}

fn step(s: u64) -> u64 {
    s.wrapping_mul(0x5851_f42d_4c95_7f2d)
        .wrapping_add(0x1405_7b7e_f767_814f)
}

/// One burst on every kernel at once, each on its own thread, as the
/// clients run; the mean of their speeds.
pub fn sample(kernels: &mut [Kernel]) -> f64 {
    let speeds: Vec<f64> = std::thread::scope(|s| {
        let workers: Vec<_> = kernels
            .iter_mut()
            .map(|k| s.spawn(move || k.burst()))
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("kernel thread"))
            .collect()
    });
    speeds.iter().sum::<f64>() / speeds.len().max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_burst_measures_a_positive_finite_speed() {
        let mut kernels = Kernel::all(2);
        let one = kernels[0].burst();
        assert!(one.is_finite() && one > 0.0);
        let both = sample(&mut kernels);
        assert!(both.is_finite() && both > 0.0);
    }
}
