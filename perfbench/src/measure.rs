//! Process-level probes (CPU time, peak memory), order statistics and the
//! result record every workload fills in.

use std::fmt::Write as _;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

fn cpu_clock(clock: i32) -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the duration of the
    // call, and both clock ids exist on every Linux kernel.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    if rc != 0 {
        return 0.0;
    }
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// CPU seconds of the whole process: every thread, including pool
/// workers that already exited. Unlike wall time, this excludes time the
/// process waited for a CPU — including time a virtual machine's host
/// stole — so it stays steadier on a shared machine.
pub fn cpu_seconds() -> f64 {
    cpu_clock(CLOCK_PROCESS_CPUTIME_ID)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Linear-interpolated quantile `q ∈ [0, 1]` of `xs` (0 when empty).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let at = |i: usize| v.get(i).copied().unwrap_or(0.0);
    at(lo) + (at(hi) - at(lo)) * (pos - lo as f64)
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The highest whole percentile with at least ten samples beyond it, and
/// the value there. Below 20 samples no percentile above the median
/// qualifies, so the median is returned.
pub fn tail(xs: &[f64]) -> (u32, f64) {
    let n = xs.len() as f64;
    let pct = if n >= 20.0 {
        ((1.0 - 10.0 / n) * 100.0).floor().clamp(50.0, 99.0) as u32
    } else {
        50
    };
    (pct, quantile(xs, pct as f64 / 100.0))
}

/// FNV-1a over a stream of 64-bit words: the run's determinism digest.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn f64(&mut self, x: f64) {
        self.word(x.to_bits());
    }

    pub fn str(&mut self, s: &str) {
        for chunk in s.as_bytes().chunks(8) {
            let mut w = [0u8; 8];
            w[..chunk.len()].copy_from_slice(chunk);
            self.word(u64::from_le_bytes(w));
        }
    }
}

/// One reported metric: value, unit, the number of samples it summarises
/// and a free-form note (which percentile a tail is, what a ratio's base
/// is).
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
    pub note: String,
}

/// Everything one invocation reports.
#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: Vec<Metric>,
    /// Operations attempted / failed: env steps, query executions, store
    /// writes and resumes, and one determinism check per repeated block.
    pub attempted: u64,
    pub failed: u64,
    /// Human-readable reasons for every failure counted above.
    pub failures: Vec<String>,
    /// Digest of every deterministic output (fingerprints, layouts,
    /// simulated seconds, work counters) of the reference block.
    pub digest: u64,
    /// Extra lines for the human-readable report.
    pub info: Vec<String>,
}

impl Outcome {
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str, samples: usize) {
        self.put_note(name, value, unit, samples, String::new());
    }

    pub fn put_note(
        &mut self,
        name: &'static str,
        value: f64,
        unit: &'static str,
        samples: usize,
        note: String,
    ) {
        self.metrics.push(Metric {
            name,
            value,
            unit,
            samples,
            note,
        });
    }

    /// Count a failed operation with its reason.
    pub fn fail(&mut self, reason: String) {
        self.failed += 1;
        self.failures.push(reason);
    }

    /// Check a repeated block's deterministic digest against the reference.
    pub fn check(&mut self, what: &str, reference: u64, got: u64) {
        self.attempted += 1;
        if reference != got {
            self.fail(format!(
                "{what}: digest {got:016x} differs from reference {reference:016x}"
            ));
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The driver-facing summary line: exactly `correct`, `attempted`,
    /// `failed` and `metrics`, each metric as `{"value", "unit"}`.
    pub fn json_line(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {:e}, \"unit\": \"{}\"}}",
                m.name, value, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let xs: Vec<f64> = (0..100).map(f64::from).collect();
        assert_eq!(tail(&xs).0, 90);
        let xs: Vec<f64> = (0..28).map(f64::from).collect();
        assert_eq!(tail(&xs).0, 64);
        assert_eq!(tail(&xs[..10]).0, 50);
    }

    #[test]
    fn json_line_has_exact_keys() {
        let mut o = Outcome::default();
        o.put("setup_s", 0.5, "s", 3);
        let line = o.json_line();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0"));
        assert!(line.contains("\"setup_s\": {\"value\": 5e-1, \"unit\": \"s\"}"));
    }
}
