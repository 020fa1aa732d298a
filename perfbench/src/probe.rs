//! The host-speed probe: a fixed piece of work, independent of the
//! program under test, timed between segments of the timed phase.
//!
//! The two-core host the benchmark was tuned on changes speed by up to
//! 2× over tens of seconds (a fixed single-thread replay of the serving
//! mix took 73–160 ms per 5-second window), and user CPU time moves with
//! wall time, so neither a longer run nor CPU time makes a 30-second run
//! repeat. The probe builds an ordered map of small vectors: allocation
//! and pointer chasing like the planner's and simulator's. Its time
//! tracked the serving path's: over the same runs, the quartile spread
//! of pass time was 0.19 (serve-hot), 0.21 (serve-plan) and 0.11
//! (paper-10way) of the median, and that of pass time ÷ adjacent probe
//! time 0.05, 0.07 and 0.03.
//!
//! Every timed interval of a run is scaled by
//! `REFERENCE_PROBE_S / probe`, with the probe taken just before it, so
//! the timing metrics read as on the tuning host at its reference
//! speed. The probe does not run the program's code, so a change that
//! makes the program faster or slower moves the scaled figures by the
//! same share as the raw ones.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// The probe's median time on the tuning host (2 vCPUs of an Intel Xeon
/// at 2.0 GHz), the speed every scaled figure refers to.
pub const REFERENCE_PROBE_S: f64 = 0.0145;

/// Inserts per probe: about 15 ms on the tuning host.
const INSERTS: u64 = 40_000;

/// Time the probe once; returns seconds.
pub fn probe_s() -> f64 {
    let t = Instant::now();
    let mut map = BTreeMap::new();
    let mut x: u64 = 0x0123_4567_89AB_CDEF;
    for k in 0..INSERTS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        map.insert(x % 100_000, vec![k; (x % 16) as usize]);
    }
    black_box(map);
    t.elapsed().as_secs_f64()
}

/// The factor that scales a time measured next to a probe of
/// `probe_s` seconds to the reference speed.
pub fn scale(probe_s: f64) -> f64 {
    REFERENCE_PROBE_S / probe_s
}
