//! The calibration loop and the normalization it drives.
//!
//! This host runs throughput-bound code in contention phases of 0.5-10 s
//! at about half speed. A port-saturating integer loop slows down with
//! the same phases, so timing it right before and after a slice of work
//! and scaling the slice by `REF_ITERS_PER_S / measured` removes most of
//! the swing while keeping the metric's units. The loop, its burst
//! length and the reference rate are frozen: changing any of them
//! changes every normalized number.

use std::hint::black_box;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread::JoinHandle;
use std::time::Instant;

/// Iterations per burst: about 0.4 ms on the reference host, short next
/// to the 10 ms slices of work it brackets.
pub const BURST_ITERS: u64 = 1 << 17;

/// About the median burst rate on the reference host, a 2-vCPU KVM
/// guest (per-run medians of 2.6e8 to 3.4e8 in the steadiness runs).
/// Frozen: it only scales normalized values, and changing it would move
/// every one of them.
pub const REF_ITERS_PER_S: f64 = 3.0e8;

/// 1024 fixed pseudo-random words; the loop reads one per iteration.
fn table() -> [u64; 1024] {
    let mut t = [0u64; 1024];
    let mut z = 0x5EED_CA11_B8A7_E000u64;
    for w in &mut t {
        z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
        *w = (z ^ (z >> 29)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    }
    t
}

/// Eight independent add/rotate/xor chains over a 1024-entry table:
/// enough independent work to keep every integer port busy, so the
/// rate tracks how much of the core this thread is actually getting.
#[inline(never)]
pub fn spin(table: &[u64; 1024], iters: u64) -> u64 {
    let (mut a, mut b, mut c, mut d) = (1u64, 2u64, 3u64, 4u64);
    let (mut e, mut f, mut g, mut h) = (5u64, 6u64, 7u64, 8u64);
    for i in 0..iters {
        let t = table[(i as usize) & 1023];
        a = a.wrapping_add(t).rotate_left(5) ^ t;
        b = b.wrapping_add(t).rotate_left(9) ^ t;
        c = c.wrapping_add(t).rotate_left(13) ^ t;
        d = d.wrapping_add(t).rotate_left(17) ^ t;
        e = e.wrapping_add(t).rotate_left(23) ^ t;
        f = f.wrapping_add(t).rotate_left(29) ^ t;
        g = g.wrapping_add(t).rotate_left(37) ^ t;
        h = h.wrapping_add(t).rotate_left(41) ^ t;
    }
    a ^ b ^ c ^ d ^ e ^ f ^ g ^ h
}

fn timed_burst(table: &[u64; 1024]) -> f64 {
    let t0 = Instant::now();
    black_box(spin(black_box(table), BURST_ITERS));
    BURST_ITERS as f64 / t0.elapsed().as_secs_f64()
}

/// A burst on a second thread, so parallel work can be calibrated on
/// both CPUs at once.
struct Helper {
    go: Sender<bool>,
    rate: Receiver<f64>,
    thread: JoinHandle<()>,
}

pub struct Calib {
    table: [u64; 1024],
    helper: Option<Helper>,
}

impl Calib {
    pub fn new() -> Calib {
        Calib {
            table: table(),
            helper: None,
        }
    }

    /// One burst on the calling thread; returns iterations per second.
    pub fn burst(&self) -> f64 {
        timed_burst(&self.table)
    }

    /// One burst on the calling thread and one on a helper thread at
    /// the same time; returns their mean rate.
    pub fn burst_both(&mut self) -> f64 {
        let table = self.table;
        let helper = self.helper.get_or_insert_with(|| {
            let (go, go_rx) = channel::<bool>();
            let (rate_tx, rate) = channel();
            let thread = std::thread::spawn(move || {
                while let Ok(true) = go_rx.recv() {
                    if rate_tx.send(timed_burst(&table)).is_err() {
                        break;
                    }
                }
            });
            Helper { go, rate, thread }
        });
        helper.go.send(true).expect("calibration helper is alive");
        let mine = timed_burst(&self.table);
        let theirs = helper.rate.recv().expect("calibration helper answers");
        (mine + theirs) / 2.0
    }
}

impl Drop for Calib {
    fn drop(&mut self) {
        if let Some(h) = self.helper.take() {
            let _ = h.go.send(false);
            let _ = h.thread.join();
        }
    }
}

/// Whether a series holds durations (normalized by multiplying with
/// `measured / REF`) or rates (multiplying with `REF / measured`).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    Time,
    Rate,
}

/// The calibration timeline of one run: `rates[w]` is the burst that
/// opened window `w`; a sample taken in window `w` is normalized by the
/// mean of the bursts on either side of it.
#[derive(Default)]
pub struct Timeline {
    pub rates: Vec<f64>,
}

impl Timeline {
    pub fn push(&mut self, rate: f64) {
        self.rates.push(rate);
    }

    pub fn window(&self) -> u32 {
        assert!(!self.rates.is_empty(), "calibrate before the first sample");
        self.rates.len() as u32 - 1
    }

    pub fn rate_around(&self, w: u32) -> f64 {
        let w = w as usize;
        match self.rates.get(w + 1) {
            Some(next) => (self.rates[w] + next) / 2.0,
            None => self.rates[w],
        }
    }
}

/// Raw samples tagged with their calibration window, optionally split
/// into groups (one per epoch or pass).
pub struct Series {
    pub kind: Kind,
    samples: Vec<(f64, u32)>,
    starts: Vec<usize>,
}

impl Series {
    pub fn new(kind: Kind) -> Series {
        Series {
            kind,
            samples: Vec::new(),
            starts: Vec::new(),
        }
    }

    /// Starts a new group at the next sample.
    pub fn start_group(&mut self) {
        self.starts.push(self.samples.len());
    }

    /// Index ranges of the non-empty groups (one range if never grouped).
    pub fn groups(&self) -> Vec<std::ops::Range<usize>> {
        let mut bounds: Vec<usize> = std::iter::once(0)
            .chain(self.starts.iter().copied())
            .collect();
        bounds.push(self.samples.len());
        bounds
            .windows(2)
            .filter(|w| w[1] > w[0])
            .map(|w| w[0]..w[1])
            .collect()
    }

    pub fn push(&mut self, raw: f64, tl: &Timeline) {
        self.samples.push((raw, tl.window()));
    }

    pub fn len(&self) -> usize {
        self.samples.len()
    }

    pub fn raw(&self) -> Vec<f64> {
        self.samples.iter().map(|&(x, _)| x).collect()
    }

    pub fn normalized(&self, tl: &Timeline) -> Vec<f64> {
        self.samples
            .iter()
            .map(|&(x, w)| {
                let r = tl.rate_around(w);
                match self.kind {
                    Kind::Time => x * r / REF_ITERS_PER_S,
                    Kind::Rate => x * REF_ITERS_PER_S / r,
                }
            })
            .collect()
    }
}

/// Tests that time CPU work hold this, so none of them runs alongside
/// the calibration self-check and skews it.
#[cfg(test)]
pub static TIMING_TESTS: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::median;

    /// A synthetic throughput-bound workload unrelated to the
    /// calibration loop: `units` passes of four independent
    /// multiply-xorshift lanes over an L1-resident buffer.
    fn synthetic(buf: &[u64; 4096], units: u32) -> u64 {
        let mut lanes = [1u64, 2, 3, 4];
        for _ in 0..units {
            for w in buf.chunks_exact(4) {
                for (l, &x) in lanes.iter_mut().zip(w) {
                    *l = (*l ^ x).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                    *l ^= *l >> 29;
                }
            }
        }
        black_box(lanes.iter().fold(0, |a, &b| a ^ b))
    }

    /// Doubling the work must halve normalized throughput while the
    /// calibration rate holds: normalization neither hides nor invents
    /// a change.
    #[test]
    fn normalization_tracks_work_not_noise() {
        let _serial = TIMING_TESTS.lock().unwrap_or_else(|e| e.into_inner());
        let calib = Calib::new();
        let mut tl = Timeline::default();
        let mut single = Series::new(Kind::Rate);
        let mut double = Series::new(Kind::Rate);
        let (mut cal_single, mut cal_double) = (Vec::new(), Vec::new());
        let buf: [u64; 4096] =
            std::array::from_fn(|i| (i as u64).wrapping_mul(0x2545_F491_4F6C_DD1D));
        tl.push(calib.burst());
        for round in 0..80 {
            let units = if round % 2 == 0 { 128 } else { 256 };
            let t0 = Instant::now();
            synthetic(&buf, units);
            let passes_per_s = 1.0 / t0.elapsed().as_secs_f64();
            if units == 128 {
                single.push(passes_per_s, &tl);
            } else {
                double.push(passes_per_s, &tl);
            }
            let rate = calib.burst();
            tl.push(rate);
            if units == 128 {
                cal_single.push(rate);
            } else {
                cal_double.push(rate);
            }
        }
        let ratio = median(&double.normalized(&tl)) / median(&single.normalized(&tl));
        assert!(
            (ratio - 0.5).abs() < 0.5 * 0.05,
            "normalized ratio {ratio}, want 0.5"
        );
        let cal_ratio = median(&cal_double) / median(&cal_single);
        assert!(
            (cal_ratio - 1.0).abs() < 0.05,
            "calibration moved by {cal_ratio}"
        );
    }

    #[test]
    fn a_slow_window_is_scaled_back() {
        let mut tl = Timeline::default();
        let mut s = Series::new(Kind::Time);
        tl.push(REF_ITERS_PER_S / 2.0);
        s.push(2.0, &tl);
        tl.push(REF_ITERS_PER_S / 2.0);
        assert_eq!(s.normalized(&tl), vec![1.0]);
        let mut r = Series::new(Kind::Rate);
        r.push(50.0, &tl);
        assert_eq!(r.normalized(&tl), vec![100.0]);
    }
}
