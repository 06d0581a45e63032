//! The one JSON line a `perfbench` process prints, plus the statistics
//! helpers behind its medians and percentiles.

use std::fmt::Write as _;

/// An ordered JSON object whose values are already rendered.
#[derive(Debug, Default)]
pub struct Obj(Vec<(String, String)>);

impl Obj {
    pub fn num(&mut self, key: &str, value: f64) -> &mut Self {
        let rendered = if value.is_finite() {
            format!("{value}")
        } else {
            "null".into()
        };
        self.0.push((key.into(), rendered));
        self
    }

    pub fn int(&mut self, key: &str, value: u64) -> &mut Self {
        self.0.push((key.into(), value.to_string()));
        self
    }

    pub fn str(&mut self, key: &str, value: &str) -> &mut Self {
        let mut quoted = String::from("\"");
        for c in value.chars() {
            match c {
                '"' => quoted.push_str("\\\""),
                '\\' => quoted.push_str("\\\\"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(quoted, "\\u{:04x}", c as u32);
                }
                c => quoted.push(c),
            }
        }
        quoted.push('"');
        self.0.push((key.into(), quoted));
        self
    }

    pub fn obj(&mut self, key: &str, value: &Obj) -> &mut Self {
        self.raw(key, value.render())
    }

    /// Adds an already rendered JSON value.
    pub fn raw(&mut self, key: &str, rendered: String) -> &mut Self {
        self.0.push((key.into(), rendered));
        self
    }

    pub fn render(&self) -> String {
        let body: Vec<String> = self.0.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
        format!("{{{}}}", body.join(","))
    }
}

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Linear-interpolated percentile, `q` in `[0, 1]`; NaN when empty.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// `values` as a comma-separated list, three decimals each.
pub fn list(values: &[f64]) -> String {
    values
        .iter()
        .map(|v| format!("{v:.3}"))
        .collect::<Vec<_>>()
        .join(",")
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// FNV-1a over a sequence of words: folds many per-tenant fields into
/// one comparable output value.
pub fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for word in words {
        for byte in word.to_le_bytes() {
            h = (h ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// This process's peak resident set (`VmHWM`) in MiB, or 0 off Linux.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        assert_eq!(percentile(&[0.0, 10.0], 0.99), 9.9);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn objects_render_as_json() {
        let mut inner = Obj::default();
        inner.int("n", 3);
        let mut o = Obj::default();
        o.str("s", "a\"b").num("x", 1.5).obj("o", &inner);
        assert_eq!(o.render(), r#"{"s":"a\"b","x":1.5,"o":{"n":3}}"#);
    }
}
