//! Loopback transfer measurement for LogGP calibration.
//!
//! The simulator's `LinkModel` prices a transfer as `L + n/BW`. This
//! module measures real frames over a loopback TCP socket across a
//! range of payload sizes and least-squares fits `(L, BW)`, so the
//! simulator can run with parameters calibrated against the actual
//! transport instead of the paper's quoted InfiniBand figures.

use crate::error::NetError;
use crate::frame::{read_frame_into, write_frame};
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::thread;
use std::time::{Duration, Instant};

/// One measured point.
#[derive(Clone, Copy, Debug)]
pub struct CalibSample {
    /// Payload size in bytes.
    pub bytes: u64,
    /// Best observed one-way seconds (half the minimum round trip).
    pub secs: f64,
}

/// A fitted latency/bandwidth pair plus the points behind it.
#[derive(Clone, Debug)]
pub struct Calibration {
    /// Fitted per-message latency, seconds.
    pub latency: f64,
    /// Fitted bandwidth, bytes/second.
    pub bandwidth: f64,
    /// The measurements the fit came from.
    pub samples: Vec<CalibSample>,
}

impl Calibration {
    /// Least-squares fit of `secs = L + bytes/BW` over the samples.
    pub fn fit(samples: Vec<CalibSample>) -> Self {
        let n = samples.len() as f64;
        let (mut sx, mut sy, mut sxx, mut sxy) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
        for s in &samples {
            let x = s.bytes as f64;
            sx += x;
            sy += s.secs;
            sxx += x * x;
            sxy += x * s.secs;
        }
        let denom = n * sxx - sx * sx;
        let (slope, intercept) = if denom.abs() < f64::EPSILON || samples.len() < 2 {
            (0.0, if samples.is_empty() { 0.0 } else { sy / n })
        } else {
            let m = (n * sxy - sx * sy) / denom;
            (m, (sy - m * sx) / n)
        };
        Calibration {
            latency: intercept.max(0.0),
            bandwidth: if slope > 0.0 { 1.0 / slope } else { f64::INFINITY },
            samples,
        }
    }

    /// The model's prediction for a payload of `bytes`.
    pub fn predict(&self, bytes: f64) -> f64 {
        self.latency + bytes / self.bandwidth
    }
}

/// Measure loopback round trips for each payload size (best of `reps`)
/// and fit a [`Calibration`]. The echo peer runs on a background thread
/// so this works anywhere the tests do.
pub fn measure_loopback(sizes: &[usize], reps: usize) -> Result<Calibration, NetError> {
    let listener =
        TcpListener::bind("127.0.0.1:0").map_err(|e| NetError::Io(format!("bind: {e}")))?;
    let addr = listener.local_addr().map_err(|e| NetError::Io(e.to_string()))?;
    let echo = thread::spawn(move || {
        if let Ok((mut s, _)) = listener.accept() {
            let _ = s.set_nodelay(true);
            let mut p = Vec::new();
            while read_frame_into(&mut s, &mut p, "echo", Duration::ZERO).is_ok() {
                if write_frame(&mut s, &p).is_err() || p.is_empty() {
                    return;
                }
            }
        }
    });
    let mut stream = TcpStream::connect_timeout(&addr, Duration::from_secs(2))
        .map_err(|e| NetError::Io(format!("connect: {e}")))?;
    let _ = stream.set_nodelay(true);
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .map_err(|e| NetError::Io(e.to_string()))?;
    let (mut samples, mut back) = (Vec::with_capacity(sizes.len()), Vec::new());
    for &size in sizes {
        let payload = vec![0x5Au8; size.max(1)];
        let mut best = f64::INFINITY;
        for _ in 0..reps.max(1) {
            let t0 = Instant::now();
            write_frame(&mut stream, &payload)?;
            read_frame_into(&mut stream, &mut back, "echo reply", Duration::from_secs(10))?;
            let rtt = t0.elapsed().as_secs_f64();
            if back.len() != payload.len() {
                return Err(NetError::Proto("echo length mismatch".into()));
            }
            best = best.min(rtt / 2.0);
        }
        samples.push(CalibSample { bytes: payload.len() as u64, secs: best });
    }
    // Empty frame tells the echo thread to stop after echoing.
    let _ = write_frame(&mut stream, &[]);
    let _ = read_frame_into(&mut stream, &mut back, "final echo", Duration::from_secs(2));
    let _ = stream.flush();
    let _ = echo.join();
    Ok(Calibration::fit(samples))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fit_recovers_exact_linear_model() {
        // secs = 1e-4 + bytes / 1e9
        let samples: Vec<CalibSample> = [1_000u64, 10_000, 100_000, 1_000_000]
            .iter()
            .map(|&b| CalibSample { bytes: b, secs: 1e-4 + b as f64 / 1e9 })
            .collect();
        let c = Calibration::fit(samples);
        assert!((c.latency - 1e-4).abs() < 1e-9, "latency {}", c.latency);
        assert!((c.bandwidth - 1e9).abs() / 1e9 < 1e-6, "bandwidth {}", c.bandwidth);
        assert!((c.predict(50_000.0) - (1e-4 + 5e-5)).abs() < 1e-9);
    }

    #[test]
    fn fit_handles_degenerate_inputs() {
        let flat = Calibration::fit(vec![CalibSample { bytes: 8, secs: 1e-5 }]);
        assert!(flat.bandwidth.is_infinite());
        assert!(flat.latency > 0.0);
        let empty = Calibration::fit(Vec::new());
        assert_eq!(empty.latency, 0.0);
    }

    #[test]
    fn loopback_measurement_produces_positive_numbers() {
        let c = measure_loopback(&[64, 4096, 65_536], 3).unwrap();
        assert_eq!(c.samples.len(), 3);
        assert!(c.samples.iter().all(|s| s.secs > 0.0));
        assert!(c.bandwidth > 0.0);
    }
}
