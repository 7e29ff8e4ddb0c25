//! Output side of the benchmark: order statistics, the process's peak
//! memory, the digest of deterministic outputs, and the JSON lines the
//! command prints.

use std::fmt::Write as _;

/// Median of `values` (mean of the two middle values for even counts);
/// 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Peak resident memory of this process in MiB (`VmHWM`), or `None` where
/// `/proc` does not report it.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// FNV-1a over the rendered deterministic output of one run: equal
/// digests mean byte-identical outputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Digest {
    pub fn of(text: &str) -> Digest {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for byte in text.bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
        Digest(hash)
    }
}

impl std::fmt::Display for Digest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// Whether a larger value of a metric is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One measured metric: its value, unit, direction and how many samples
/// the value summarizes.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub better: Better,
    pub samples: usize,
}

impl Metric {
    pub fn new(
        name: &str,
        value: f64,
        unit: &'static str,
        better: Better,
        samples: usize,
    ) -> Metric {
        Metric {
            name: name.to_string(),
            value,
            unit,
            better,
            samples,
        }
    }
}

/// Formats a float as JSON with all its digits; non-finite values (which
/// JSON cannot carry) become `null`.
pub fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "null".to_string()
    }
}

/// Escapes `text` as a JSON string literal.
pub fn json_string(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Context every record line carries so a number cannot outlive the
/// scale and machine it was measured at.
pub struct RecordContext<'a> {
    pub workload: &'a str,
    pub seed: u64,
    pub trace: bool,
    pub rev: &'a str,
    pub nproc: usize,
    /// The workload's input sizes, `(name, value)`.
    pub sizes: &'a [(&'static str, u64)],
}

/// One self-describing record line per metric.
pub fn record_line(ctx: &RecordContext<'_>, metric: &Metric) -> String {
    let sizes: Vec<String> = ctx
        .sizes
        .iter()
        .map(|(k, v)| format!("{}:{v}", json_string(k)))
        .collect();
    format!(
        concat!(
            "{{\"record\":{},\"value\":{},\"unit\":{},\"better\":{},\"samples\":{},",
            "\"workload\":{},\"seed\":{},\"trace\":{},\"rev\":{},\"nproc\":{},\"sizes\":{{{}}}}}"
        ),
        json_string(&format!("{}/{}", ctx.workload, metric.name)),
        json_number(metric.value),
        json_string(metric.unit),
        json_string(metric.better.as_str()),
        metric.samples,
        json_string(ctx.workload),
        ctx.seed,
        u8::from(ctx.trace),
        json_string(ctx.rev),
        ctx.nproc,
        sizes.join(",")
    )
}

/// The result object: the last line the command prints.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_string(&m.name),
                json_number(m.value),
                json_string(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        body.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn digest_separates_outputs() {
        assert_eq!(Digest::of("a"), Digest::of("a"));
        assert_ne!(Digest::of("a"), Digest::of("b"));
    }

    #[test]
    fn result_line_has_exactly_the_result_keys() {
        let line = result_line(
            true,
            3,
            0,
            &[Metric::new("setup_s", 0.5, "s", Better::Lower, 3)],
        );
        assert_eq!(
            line,
            "{\"correct\":true,\"attempted\":3,\"failed\":0,\"metrics\":{\"setup_s\":{\"value\":0.5,\"unit\":\"s\"}}}"
        );
    }
}
