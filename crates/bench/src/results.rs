//! Machine-readable bench results: `BENCH_results.json`.
//!
//! Every figure bench prints its CSV to stdout as before, and *also*
//! records each row into a [`Report`] that lands next to the CSV in
//! one merged `BENCH_results.json` — so the performance trajectory is
//! tracked run-over-run by tooling instead of by eyeballing logs.
//!
//! The build is offline (no serde), so this module carries its own
//! tiny JSON value type — enough to render what we emit and to parse
//! it back for the read–merge–write cycle. The file maps figure names
//! to their latest rows:
//!
//! ```json
//! {
//!   "schema": 1,
//!   "figures": {
//!     "fig4": {
//!       "x_name": "throughput_per_s",
//!       "generated_unix": 1753776000,
//!       "rows": [
//!         { "series": "n=3 Fd", "x": 200, "latency_ms": 12.3, … }
//!       ]
//!     }
//!   }
//! }
//! ```
//!
//! Re-running one bench replaces only its own figures; the rest of
//! the file survives. `ATOMBENCH_RESULTS` overrides the output path.

#![expect(
    clippy::disallowed_methods,
    reason = "the `generated_unix` stamp reads the wall clock unless `SOURCE_DATE_EPOCH` is set; \
              it labels a results file and never enters a simulation"
)]

use std::fmt::Write as _;
use std::path::PathBuf;

use study::RunOutput;

/// A minimal JSON value: just enough for the results file.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (rendered via `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Renders compact JSON.
    pub fn render(&self) -> String {
        let mut s = String::new();
        self.write(&mut s);
        s
    }

    fn write(&self, s: &mut String) {
        match self {
            Json::Null => s.push_str("null"),
            Json::Bool(b) => s.push_str(if *b { "true" } else { "false" }),
            Json::Num(x) => {
                // Integer-valued doubles up to 2^53 (the last magnitude
                // where every integer is exactly representable, so the
                // `as i64` cast is lossless — this includes the 1e15
                // boundary) render without a fraction. Negative zero
                // must skip the fast path: `-0.0 as i64` is `0`, which
                // would silently drop the sign on a parse→render
                // round-trip; `{x}` renders it as `-0`.
                const MAX_EXACT_INT: f64 = 9_007_199_254_740_992.0; // 2^53
                let negative_zero = *x == 0.0 && x.is_sign_negative();
                if x.fract() == 0.0 && x.abs() <= MAX_EXACT_INT && !negative_zero {
                    let _ = write!(s, "{}", *x as i64);
                } else {
                    let _ = write!(s, "{x}");
                }
            }
            Json::Str(v) => write_json_string(s, v),
            Json::Arr(items) => {
                s.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        s.push(',');
                    }
                    item.write(s);
                }
                s.push(']');
            }
            Json::Obj(fields) => {
                s.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        s.push(',');
                    }
                    write_json_string(s, k);
                    s.push(':');
                    v.write(s);
                }
                s.push('}');
            }
        }
    }

    /// Looks up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Inserts or replaces a key in an object.
    ///
    /// # Panics
    ///
    /// Panics if `self` is not an object.
    pub fn set(&mut self, key: &str, value: Json) {
        let Json::Obj(fields) = self else {
            panic!("Json::set on a non-object");
        };
        match fields.iter_mut().find(|(k, _)| k == key) {
            Some((_, v)) => *v = value,
            None => fields.push((key.to_string(), value)),
        }
    }

    /// Parses a JSON document (the subset this module emits, which is
    /// a superset of what it needs to read back).
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing characters at byte {pos}"));
        }
        Ok(value)
    }
}

fn write_json_string(s: &mut String, v: &str) {
    s.push('"');
    for c in v.chars() {
        match c {
            '"' => s.push_str("\\\""),
            '\\' => s.push_str("\\\\"),
            '\n' => s.push_str("\\n"),
            '\r' => s.push_str("\\r"),
            '\t' => s.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(s, "\\u{:04x}", c as u32);
            }
            c => s.push(c),
        }
    }
    s.push('"');
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if b.get(*pos) == Some(&c) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {pos}", c as char))
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        Some(b'{') => parse_object(b, pos),
        Some(b'[') => parse_array(b, pos),
        Some(b'"') => Ok(Json::Str(parse_string(b, pos)?)),
        Some(b't') => parse_lit(b, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", Json::Null),
        Some(_) => parse_number(b, pos),
        None => Err("unexpected end of input".into()),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("bad literal at byte {pos}"))
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
        *pos += 1;
    }
    std::str::from_utf8(&b[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .map(Json::Num)
        .ok_or_else(|| format!("bad number at byte {start}"))
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(b, pos, b'"')?;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let hex = b
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .and_then(|h| u32::from_str_radix(h, 16).ok())
                            .ok_or("bad \\u escape")?;
                        out.push(char::from_u32(hex).unwrap_or('\u{FFFD}'));
                        *pos += 4;
                    }
                    _ => return Err("bad escape".into()),
                }
                *pos += 1;
            }
            Some(_) => {
                // Copy the whole UTF-8 scalar, not just one byte.
                let rest = std::str::from_utf8(&b[*pos..]).map_err(|_| "invalid utf-8")?;
                let c = rest.chars().next().expect("non-empty");
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_object(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(b, pos, b'{')?;
    let mut fields = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(fields));
    }
    loop {
        skip_ws(b, pos);
        let key = parse_string(b, pos)?;
        skip_ws(b, pos);
        expect(b, pos, b':')?;
        let value = parse_value(b, pos)?;
        fields.push((key, value));
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
        }
    }
}

fn parse_array(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(b, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(b, pos)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {pos}")),
        }
    }
}

/// Where the merged results land: `ATOMBENCH_RESULTS`, or
/// `BENCH_results.json` at the workspace root (`cargo bench` sets the
/// working directory to the *package* root, two levels down).
pub fn results_path() -> PathBuf {
    if let Some(p) = std::env::var_os("ATOMBENCH_RESULTS") {
        return PathBuf::from(p);
    }
    let workspace = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/bench sits two levels below the workspace root");
    workspace.join("BENCH_results.json")
}

/// One figure's CSV printer *and* JSON recorder.
///
/// Drop-in for the old free `header`/`row` pair: construction prints
/// the CSV header, [`row`](Report::row) prints one CSV line while
/// recording the structured equivalent, and [`finish`](Report::finish)
/// merges the figure into `BENCH_results.json`.
pub struct Report {
    figure: String,
    x_name: String,
    rows: Vec<Json>,
}

impl Report {
    /// Starts a figure: prints the CSV header.
    pub fn new(figure: &str, x_name: &str) -> Self {
        println!("# {figure}");
        println!("figure,series,{x_name},latency_ms,ci95_ms,p50_ms,p95_ms,p99_ms");
        Report {
            figure: figure.to_string(),
            x_name: x_name.to_string(),
            rows: Vec::new(),
        }
    }

    /// Starts a figure whose bench prints its own CSV columns and
    /// records rows via [`custom_row`](Report::custom_row); only the
    /// `# figure` banner is printed here.
    pub fn new_custom(figure: &str, x_name: &str) -> Self {
        println!("# {figure}");
        Report {
            figure: figure.to_string(),
            x_name: x_name.to_string(),
            rows: Vec::new(),
        }
    }

    /// Prints one CSV data row — mean latency with its 95% CI over
    /// replication means, plus p50/p95/p99 of the per-message
    /// latencies — and records it for the JSON report.
    pub fn row(&mut self, series: &str, x: impl std::fmt::Display, out: &RunOutput) {
        let x = x.to_string();
        let pct = |p: f64| out.messages.as_ref().and_then(|m| m.percentile(p));
        let opt = |v: Option<f64>| v.map_or(String::new(), |v| format!("{v:.3}"));
        match &out.latency {
            Some(s) => println!(
                "{},{series},{x},{:.3},{:.3},{},{},{}",
                self.figure,
                s.mean(),
                s.ci95(),
                opt(pct(50.0)),
                opt(pct(95.0)),
                opt(pct(99.0)),
            ),
            None => println!("{},{series},{x},saturated,,,,", self.figure),
        }
        let num = |v: Option<f64>| v.map_or(Json::Null, Json::Num);
        self.rows.push(Json::Obj(vec![
            ("series".into(), Json::Str(series.to_string())),
            ("x".into(), x_value(&x)),
            (
                "latency_ms".into(),
                num(out.latency.as_ref().map(|s| s.mean())),
            ),
            (
                "ci95_ms".into(),
                num(out.latency.as_ref().map(|s| s.ci95())),
            ),
            ("p50_ms".into(), num(pct(50.0))),
            ("p95_ms".into(), num(pct(95.0))),
            ("p99_ms".into(), num(pct(99.0))),
            ("saturated".into(), Json::Bool(out.latency.is_none())),
            ("saturated_reps".into(), Json::Num(out.saturated as f64)),
            (
                "message_samples".into(),
                Json::Num(out.messages.as_ref().map_or(0, |m| m.len()) as f64),
            ),
        ]));
    }

    /// Records a row whose value column the bench computes and prints
    /// itself (e.g. fig8's latency *overhead*, fig_saturation's
    /// `T*`). `value` is `(value, uncertainty)`; the uncertainty is
    /// stored under `uncertainty_name` so its unit stays honest
    /// (`ci95_ms` for latencies, `bracket_width_per_s` for
    /// throughputs — a fixed key would mislabel one of them).
    /// `extra` fields are appended verbatim (e.g. fig_saturation's
    /// `ceiling_hit` marker for values that are lower bounds, not
    /// measurements).
    pub fn custom_row(
        &mut self,
        series: &str,
        x: impl std::fmt::Display,
        value_name: &str,
        uncertainty_name: &str,
        value: Option<(f64, f64)>,
        extra: &[(&str, Json)],
    ) {
        let mut fields = vec![
            ("series".into(), Json::Str(series.to_string())),
            ("x".into(), x_value(&x.to_string())),
            (
                value_name.into(),
                value.map_or(Json::Null, |(v, _)| Json::Num(v)),
            ),
            (
                uncertainty_name.into(),
                value.map_or(Json::Null, |(_, u)| Json::Num(u)),
            ),
            ("saturated".into(), Json::Bool(value.is_none())),
        ];
        fields.extend(extra.iter().map(|(k, v)| ((*k).to_string(), v.clone())));
        self.rows.push(Json::Obj(fields));
    }

    /// Merges this figure into `BENCH_results.json` (replacing any
    /// previous rows for the same figure, leaving other figures
    /// alone). Failures to write are reported on stderr, never fatal:
    /// the CSV on stdout remains the source of truth.
    pub fn finish(self) {
        let path = results_path();
        let mut doc = match std::fs::read_to_string(&path) {
            Ok(text) => match Json::parse(&text)
                .ok()
                .filter(|d| matches!(d, Json::Obj(_)))
            {
                Some(doc) => doc,
                None => {
                    // A corrupt history (e.g. a write cut short by a CI
                    // timeout) must not be wiped quietly — keep the
                    // evidence and start the new document beside it.
                    let bak = path.with_extension("json.corrupt");
                    eprintln!(
                        "warning: {} is not valid JSON; saving it to {} and starting fresh",
                        path.display(),
                        bak.display()
                    );
                    let _ = std::fs::rename(&path, &bak);
                    empty_doc()
                }
            },
            Err(_) => empty_doc(),
        };
        let generated = generated_epoch(std::env::var("SOURCE_DATE_EPOCH").ok().as_deref());
        let entry = Json::Obj(vec![
            ("x_name".into(), Json::Str(self.x_name)),
            ("generated_unix".into(), Json::Num(generated as f64)),
            ("rows".into(), Json::Arr(self.rows)),
        ]);
        if doc
            .get("figures")
            .is_none_or(|f| !matches!(f, Json::Obj(_)))
        {
            doc.set("figures", Json::Obj(Vec::new()));
        }
        let Json::Obj(fields) = &mut doc else {
            unreachable!("doc filtered to an object above");
        };
        let figures = fields
            .iter_mut()
            .find(|(k, _)| k == "figures")
            .map(|(_, v)| v)
            .expect("figures ensured above");
        figures.set(&self.figure, entry);
        let mut text = doc.render();
        text.push('\n');
        // Write-then-rename so an interrupted bench can never leave a
        // truncated results file behind.
        let tmp = path.with_extension("json.tmp");
        let written = std::fs::write(&tmp, text).and_then(|()| std::fs::rename(&tmp, &path));
        if let Err(e) = written {
            eprintln!("warning: could not write {}: {e}", path.display());
        } else {
            eprintln!("# results merged into {}", path.display());
        }
    }
}

/// The `generated_unix` stamp for a merge. `SOURCE_DATE_EPOCH` (the
/// reproducible-builds convention: seconds since the Unix epoch) wins
/// when set and parseable, so CI can diff two freshly regenerated
/// results files byte for byte; otherwise the wall clock.
fn generated_epoch(source_date_epoch: Option<&str>) -> u64 {
    source_date_epoch
        .and_then(|v| v.trim().parse::<u64>().ok())
        .unwrap_or_else(|| {
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map_or(0, |d| d.as_secs())
        })
}

/// A fresh results document.
fn empty_doc() -> Json {
    Json::Obj(vec![
        ("schema".into(), Json::Num(1.0)),
        ("figures".into(), Json::Obj(Vec::new())),
    ])
}

/// CSV `x` columns are numbers whenever they look like one; keep the
/// JSON faithful to that.
fn x_value(x: &str) -> Json {
    x.parse::<f64>()
        .map_or_else(|_| Json::Str(x.to_string()), Json::Num)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_parse_roundtrip() {
        let doc = Json::Obj(vec![
            ("schema".into(), Json::Num(1.0)),
            (
                "figures".into(),
                Json::Obj(vec![(
                    "fig4".into(),
                    Json::Obj(vec![
                        ("x_name".into(), Json::Str("throughput".into())),
                        (
                            "rows".into(),
                            Json::Arr(vec![Json::Obj(vec![
                                ("series".into(), Json::Str("n=3 \"Fd\"".into())),
                                ("x".into(), Json::Num(200.0)),
                                ("latency_ms".into(), Json::Num(12.375)),
                                ("p99_ms".into(), Json::Null),
                                ("saturated".into(), Json::Bool(false)),
                            ])]),
                        ),
                    ]),
                )]),
            ),
        ]);
        let text = doc.render();
        assert_eq!(Json::parse(&text).unwrap(), doc);
    }

    #[test]
    fn parse_accepts_whitespace_and_escapes() {
        let doc =
            Json::parse(r#" { "a" : [ 1 , -2.5e1 , true , null ] , "s" : "x\n\"y\"A" } "#).unwrap();
        assert_eq!(
            doc.get("a"),
            Some(&Json::Arr(vec![
                Json::Num(1.0),
                Json::Num(-25.0),
                Json::Bool(true),
                Json::Null
            ]))
        );
        assert_eq!(doc.get("s"), Some(&Json::Str("x\n\"y\"A".into())));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("{} trailing").is_err());
        assert!(Json::parse("\"unterminated").is_err());
    }

    #[test]
    fn set_replaces_and_appends() {
        let mut o = Json::Obj(vec![("a".into(), Json::Num(1.0))]);
        o.set("a", Json::Num(2.0));
        o.set("b", Json::Bool(true));
        assert_eq!(o.get("a"), Some(&Json::Num(2.0)));
        assert_eq!(o.get("b"), Some(&Json::Bool(true)));
    }

    #[test]
    fn integers_render_without_exponent_noise() {
        assert_eq!(Json::Num(1753776000.0).render(), "1753776000");
        assert_eq!(Json::Num(0.125).render(), "0.125");
    }

    #[test]
    fn negative_zero_keeps_its_sign_through_a_round_trip() {
        let rendered = Json::Num(-0.0).render();
        assert_eq!(rendered, "-0");
        let Json::Num(back) = Json::parse(&rendered).unwrap() else {
            panic!("not a number");
        };
        assert_eq!(back.to_bits(), (-0.0f64).to_bits());
        // Positive zero still takes the integral fast path.
        assert_eq!(Json::Num(0.0).render(), "0");
    }

    #[test]
    fn integral_boundaries_render_exactly() {
        // The old `< 1e15` cutoff pushed 1e15 itself through the float
        // formatter; integers are exact up to 2^53, so render them all
        // without a fraction — and fall back beyond, where `as i64`
        // would no longer be lossless.
        assert_eq!(Json::Num(1e15).render(), "1000000000000000");
        assert_eq!(Json::Num(-1e15).render(), "-1000000000000000");
        let two53 = 9_007_199_254_740_992.0f64;
        assert_eq!(Json::Num(two53).render(), "9007199254740992");
        assert_eq!(Json::Num(-two53).render(), "-9007199254740992");
        for x in [1e15, -1e15, two53, -two53, 1e16, 2.5e18] {
            let Json::Num(back) = Json::parse(&Json::Num(x).render()).unwrap() else {
                panic!("not a number");
            };
            assert_eq!(back.to_bits(), x.to_bits(), "round-trip of {x}");
        }
    }

    #[test]
    fn source_date_epoch_pins_the_generated_stamp() {
        assert_eq!(generated_epoch(Some("1700000000")), 1_700_000_000);
        assert_eq!(generated_epoch(Some(" 1700000000\n")), 1_700_000_000);
        // Unparseable or absent values fall back to the wall clock —
        // which is certainly later than the commit adding this test.
        assert!(generated_epoch(Some("not-an-epoch")) > 1_700_000_000);
        assert!(generated_epoch(None) > 1_700_000_000);
    }

    #[test]
    fn x_values_stay_numeric_when_possible() {
        assert_eq!(x_value("200"), Json::Num(200.0));
        assert_eq!(x_value("12.5"), Json::Num(12.5));
        assert_eq!(x_value("switched"), Json::Str("switched".into()));
    }
}
