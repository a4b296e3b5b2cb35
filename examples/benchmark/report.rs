//! Metric definitions, result lines, and `--compare`.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// An end-to-end metric: what BENCHMARK.json says about it.
pub struct EndToEndDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Share of the baseline's median the metric may get worse by.
    pub bound: f64,
}

const fn def(
    name: &'static str,
    unit: &'static str,
    higher_is_better: bool,
    bound: f64,
) -> EndToEndDef {
    EndToEndDef {
        name,
        unit,
        higher_is_better,
        bound,
    }
}

/// Kept equal to BENCHMARK.json's `end_to_end` by `--selfcheck`.
pub const END_TO_END: [EndToEndDef; 6] = [
    def("ops_per_s", "1/s", true, 0.25),
    def("read_p50_us", "us", false, 0.25),
    def("cd_p50_us", "us", false, 0.25),
    def("sim_ms_per_op", "ms", false, 0.03),
    def("setup_s", "s", false, 0.25),
    def("peak_rss_mb", "MB", false, 0.15),
];

/// The unit of a per-layer metric, from its name.
pub fn layer_unit(name: &str) -> &'static str {
    if name.contains("_ns") {
        "ns"
    } else if name.ends_with("_us") {
        "us"
    } else if name.contains("bytes") && name.ends_with("_per_op") {
        "B/op"
    } else if name.ends_with("blocks_per_op") {
        "blocks/op"
    } else if name.ends_with("_per_op") {
        "1/op"
    } else if name.ends_with("_amp") {
        "ratio"
    } else if name.ends_with("_max") {
        "count"
    } else {
        "share"
    }
}

/// One run's result: the contract's four keys, plus — in `--out` files —
/// what identifies the run and the sample counts behind the numbers.
pub struct RunResult {
    pub workload: &'static str,
    pub seed: u64,
    pub trace: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Name → (value, unit), in the order they are printed.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Sample counts and other context, by name.
    pub samples: Vec<(&'static str, u64)>,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    fn metrics_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // `{:?}` prints an f64 with every digit it has.
            write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            )
            .expect("string write");
        }
        out.push('}');
        out
    }

    /// The line the driver reads: exactly `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn contract_line(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct(),
            self.attempted,
            self.failed,
            self.metrics_json()
        )
    }

    /// The `--out` line: the contract's keys plus run identity and
    /// sample counts.
    pub fn out_line(&self) -> String {
        let samples: Vec<String> = self
            .samples
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"samples\": {{{}}}, \"metrics\": {}}}",
            self.workload,
            self.seed,
            self.trace as u8,
            self.correct(),
            self.attempted,
            self.failed,
            samples.join(", "),
            self.metrics_json()
        )
    }

    pub fn human(&self) -> String {
        let mut out = format!(
            "{} seed {} trace {}: attempted {} failed {}\n",
            self.workload, self.seed, self.trace as u8, self.attempted, self.failed
        );
        for (name, value, unit) in &self.metrics {
            writeln!(out, "  {name:<36} {value:>16.4} {unit}").expect("string write");
        }
        let samples: Vec<String> = self
            .samples
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect();
        writeln!(out, "  samples: {}", samples.join(" ")).expect("string write");
        out
    }
}

/// A parsed JSON value — only what `--out` lines and BENCHMARK.json
/// contain.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Num(f64),
    Str(String),
    Bool(bool),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }
    pub fn num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }
    pub fn str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// Parses one JSON value of the subset [`Json`] holds (no null, no
/// escapes inside strings).
pub fn parse_json(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        s: text.as_bytes(),
        at: 0,
    };
    let v = p.value()?;
    p.ws();
    if p.at == p.s.len() {
        Ok(v)
    } else {
        Err(format!("trailing input at byte {}", p.at))
    }
}

struct Parser<'a> {
    s: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.s.get(self.at).is_some_and(u8::is_ascii_whitespace) {
            self.at += 1;
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        self.ws();
        if self.s.get(self.at) == Some(&c) {
            self.at += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", c as char, self.at))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let start = self.at;
        while self
            .s
            .get(self.at)
            .is_some_and(|&c| c != b'"' && c != b'\\')
        {
            self.at += 1;
        }
        let out = String::from_utf8_lossy(&self.s[start..self.at]).into_owned();
        self.expect(b'"')?;
        Ok(out)
    }

    fn value(&mut self) -> Result<Json, String> {
        self.ws();
        match self.s.get(self.at) {
            Some(b'{') => {
                self.at += 1;
                let mut m = BTreeMap::new();
                self.ws();
                if self.s.get(self.at) == Some(&b'}') {
                    self.at += 1;
                    return Ok(Json::Obj(m));
                }
                loop {
                    let k = self.string()?;
                    self.expect(b':')?;
                    m.insert(k, self.value()?);
                    self.ws();
                    match self.s.get(self.at) {
                        Some(b',') => self.at += 1,
                        Some(b'}') => {
                            self.at += 1;
                            return Ok(Json::Obj(m));
                        }
                        _ => return Err(format!("expected ',' or '}}' at byte {}", self.at)),
                    }
                }
            }
            Some(b'[') => {
                self.at += 1;
                let mut v = Vec::new();
                self.ws();
                if self.s.get(self.at) == Some(&b']') {
                    self.at += 1;
                    return Ok(Json::Arr(v));
                }
                loop {
                    v.push(self.value()?);
                    self.ws();
                    match self.s.get(self.at) {
                        Some(b',') => self.at += 1,
                        Some(b']') => {
                            self.at += 1;
                            return Ok(Json::Arr(v));
                        }
                        _ => return Err(format!("expected ',' or ']' at byte {}", self.at)),
                    }
                }
            }
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') if self.s[self.at..].starts_with(b"true") => {
                self.at += 4;
                Ok(Json::Bool(true))
            }
            Some(b'f') if self.s[self.at..].starts_with(b"false") => {
                self.at += 5;
                Ok(Json::Bool(false))
            }
            Some(_) => {
                let start = self.at;
                while self
                    .s
                    .get(self.at)
                    .is_some_and(|c| c.is_ascii_digit() || b"+-.eE".contains(c))
                {
                    self.at += 1;
                }
                std::str::from_utf8(&self.s[start..self.at])
                    .ok()
                    .and_then(|t| t.parse().ok())
                    .map(Json::Num)
                    .ok_or_else(|| format!("bad value at byte {start}"))
            }
            None => Err("unexpected end of input".into()),
        }
    }
}

/// Python's `statistics.quantiles(values, n=4)` (the exclusive method):
/// the three cut points the driver computes spreads from.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut v = values.to_vec();
    v.sort_unstable_by(f64::total_cmp);
    let n = v.len();
    assert!(n >= 2, "quartiles need two values");
    [1usize, 2, 3].map(|i| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    })
}

/// Every `--out` line of a file, as workload → metric → values.
type RunSet = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn load(path: &str) -> Result<RunSet, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut set = RunSet::new();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let v = parse_json(line).map_err(|e| format!("{path}:{}: {e}", i + 1))?;
        if v.get("trace").and_then(Json::num) != Some(0.0) {
            continue;
        }
        let workload = v
            .get("workload")
            .and_then(Json::str)
            .ok_or_else(|| format!("{path}:{}: no workload", i + 1))?;
        let Some(Json::Obj(metrics)) = v.get("metrics") else {
            return Err(format!("{path}:{}: no metrics", i + 1));
        };
        for (name, m) in metrics {
            if let Some(value) = m.get("value").and_then(Json::num) {
                set.entry(workload.to_string())
                    .or_default()
                    .entry(name.clone())
                    .or_default()
                    .push(value);
            }
        }
    }
    Ok(set)
}

/// Compares run set B against baseline A, one row per (workload,
/// metric): `worse` if B's median is worse than A's by more than the
/// metric's bound, `unresolved` if either side's interquartile spread is
/// wider than the bound (set-up time excepted, as in the driver's rule),
/// else `ok`.  Returns whether any row is `worse`.
pub fn compare(path_a: &str, path_b: &str) -> Result<bool, String> {
    let (a, b) = (load(path_a)?, load(path_b)?);
    let mut any_worse = false;
    println!(
        "{:<14} {:<14} {:>14} {:>14} {:>8} {:>8} {:>8}  verdict",
        "workload", "metric", "median A", "median B", "B worse", "spread A", "spread B"
    );
    for (workload, metrics_a) in &a {
        for d in &END_TO_END {
            let (Some(va), Some(vb)) = (
                metrics_a.get(d.name),
                b.get(workload).and_then(|m| m.get(d.name)),
            ) else {
                continue;
            };
            let stats = |v: &[f64]| {
                let mut sorted = v.to_vec();
                let med = crate::measure::median(&mut sorted);
                let spread = if v.len() >= 2 {
                    let q = quartiles(v);
                    (q[2] - q[0]) / med
                } else {
                    0.0
                };
                (med, spread)
            };
            let ((ma, sa), (mb, sb)) = (stats(va), stats(vb));
            let change = if d.higher_is_better {
                (ma - mb) / ma
            } else {
                (mb - ma) / ma
            };
            let verdict = if change > d.bound {
                any_worse = true;
                "worse"
            } else if d.name != "setup_s" && sa.max(sb) > d.bound {
                "unresolved"
            } else {
                "ok"
            };
            println!(
                "{workload:<14} {:<14} {ma:>14.4} {mb:>14.4} {:>+7.1}% {:>7.1}% {:>7.1}%  {verdict}",
                d.name,
                change * 100.0,
                sa * 100.0,
                sb * 100.0
            );
        }
    }
    Ok(any_worse)
}
