//! Exposition: Prometheus text format and JSON rendering of a
//! [`Registry`], plus an in-tree linter for the Prometheus format used by
//! CI to validate what the `stats` example emits.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt::Write as _;

use crate::registry::{Metric, Registry};

fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

fn escape_help(v: &str) -> String {
    v.replace('\\', "\\\\").replace('\n', "\\n")
}

fn render_labels(labels: &[(String, String)], extra: Option<(&str, &str)>) -> String {
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
        .collect();
    if let Some((k, v)) = extra {
        parts.push(format!("{k}=\"{}\"", escape_label(v)));
    }
    if parts.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", parts.join(","))
    }
}

impl Registry {
    /// Renders every registered series in the Prometheus text exposition
    /// format (`# HELP`/`# TYPE` headers, cumulative histogram buckets
    /// with `le` labels, `_sum`/`_count`). The output passes
    /// [`crate::lint_prometheus`].
    pub fn prometheus(&self) -> String {
        let inner = self.inner.lock().expect("registry lock");
        let mut out = String::new();
        let mut last_name: Option<&str> = None;
        for ((name, labels), metric) in &inner.metrics {
            if last_name != Some(name.as_str()) {
                let help = inner.help.get(name).map(String::as_str).unwrap_or("");
                let _ = writeln!(out, "# HELP {name} {}", escape_help(help));
                let _ = writeln!(out, "# TYPE {name} {}", type_of(metric));
                last_name = Some(name.as_str());
            }
            match metric {
                Metric::Counter(c) => {
                    let _ = writeln!(out, "{name}{} {}", render_labels(labels, None), c.get());
                }
                Metric::Gauge(g) => {
                    let _ = writeln!(out, "{name}{} {}", render_labels(labels, None), g.get());
                }
                Metric::Histogram(h) => {
                    let snap = h.snapshot();
                    let mut cumulative = 0u64;
                    for (ub, n) in snap.nonzero_buckets() {
                        cumulative += n;
                        let _ = writeln!(
                            out,
                            "{name}_bucket{} {cumulative}",
                            render_labels(labels, Some(("le", &ub.to_string())))
                        );
                    }
                    let _ = writeln!(
                        out,
                        "{name}_bucket{} {}",
                        render_labels(labels, Some(("le", "+Inf"))),
                        snap.bucket_total()
                    );
                    let _ = writeln!(
                        out,
                        "{name}_sum{} {}",
                        render_labels(labels, None),
                        snap.sum
                    );
                    let _ = writeln!(
                        out,
                        "{name}_count{} {}",
                        render_labels(labels, None),
                        snap.bucket_total()
                    );
                }
            }
        }
        out
    }

    /// Renders every registered series as a JSON document:
    /// `{"metrics": [{name, type, help, labels, …}]}` with quantile
    /// summaries and `[upper_bound, count]` bucket pairs for histograms.
    pub fn json(&self) -> String {
        let inner = self.inner.lock().expect("registry lock");
        let mut out = String::from("{\"metrics\":[");
        let mut first = true;
        for ((name, labels), metric) in &inner.metrics {
            if !first {
                out.push(',');
            }
            first = false;
            let help = inner.help.get(name).map(String::as_str).unwrap_or("");
            let _ = write!(
                out,
                "{{\"name\":{},\"type\":\"{}\",\"help\":{},\"labels\":{{",
                json_escape(name),
                type_of(metric),
                json_escape(help)
            );
            for (i, (k, v)) in labels.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{}:{}", json_escape(k), json_escape(v));
            }
            out.push('}');
            match metric {
                Metric::Counter(c) => {
                    let _ = write!(out, ",\"value\":{}", c.get());
                }
                Metric::Gauge(g) => {
                    let _ = write!(out, ",\"value\":{}", g.get());
                }
                Metric::Histogram(h) => {
                    let s = h.snapshot();
                    let _ = write!(
                        out,
                        ",\"count\":{},\"sum\":{},\"max\":{},\"mean\":{},\"p50\":{},\"p90\":{},\"p99\":{},\"p999\":{},\"buckets\":[",
                        s.count,
                        s.sum,
                        s.max,
                        s.mean(),
                        s.p50(),
                        s.p90(),
                        s.p99(),
                        s.p999()
                    );
                    for (i, (ub, n)) in s.nonzero_buckets().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        let _ = write!(out, "[{ub},{n}]");
                    }
                    out.push(']');
                }
            }
            out.push('}');
        }
        out.push_str("]}");
        out
    }
}

fn type_of(metric: &Metric) -> &'static str {
    match metric {
        Metric::Counter(_) => "counter",
        Metric::Gauge(_) => "gauge",
        Metric::Histogram(_) => "histogram",
    }
}

/// Renders `s` as a quoted JSON string literal (quotes included), with
/// the standard escapes. Shared by the registry's JSON export and by
/// report serializers elsewhere in the workspace.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':')
        && chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// One parsed sample line.
struct Sample {
    name: String,
    labels: Vec<(String, String)>,
    value: f64,
    line_no: usize,
}

/// Parses `name{l="v",…} value [timestamp]`; pushes errors, returns None
/// on malformed lines.
fn parse_sample(line: &str, line_no: usize, errors: &mut Vec<String>) -> Option<Sample> {
    let bad = |errors: &mut Vec<String>, what: &str| {
        errors.push(format!("line {line_no}: {what}: {line:?}"));
        None
    };
    let name_end = line
        .find(|c: char| c == '{' || c.is_whitespace())
        .unwrap_or(line.len());
    let name = &line[..name_end];
    if !valid_metric_name(name) {
        return bad(errors, "invalid metric name");
    }
    let mut rest = &line[name_end..];
    let mut labels = Vec::new();
    if let Some(r) = rest.strip_prefix('{') {
        let Some(close) = r.find('}') else {
            return bad(errors, "unterminated label set");
        };
        let body = &r[..close];
        rest = &r[close + 1..];
        if !body.is_empty() {
            // Label values are quoted and may not contain unescaped quotes,
            // so splitting on '",' after a quote is unambiguous for the
            // simple values this linter faces; escapes are validated below.
            for pair in split_label_pairs(body) {
                let Some(eq) = pair.find('=') else {
                    return bad(errors, "label without '='");
                };
                let (k, v) = (&pair[..eq], &pair[eq + 1..]);
                if !valid_metric_name(k) {
                    return bad(errors, "invalid label name");
                }
                let Some(v) = v.strip_prefix('"').and_then(|v| v.strip_suffix('"')) else {
                    return bad(errors, "label value not quoted");
                };
                if has_invalid_escape(v) {
                    return bad(errors, "invalid escape in label value");
                }
                labels.push((k.to_string(), v.to_string()));
            }
        }
    }
    let mut fields = rest.split_whitespace();
    let Some(value_str) = fields.next() else {
        return bad(errors, "missing sample value");
    };
    let value = match value_str {
        "+Inf" => f64::INFINITY,
        "-Inf" => f64::NEG_INFINITY,
        "NaN" => f64::NAN,
        v => match v.parse::<f64>() {
            Ok(v) => v,
            Err(_) => return bad(errors, "unparsable sample value"),
        },
    };
    if let Some(ts) = fields.next() {
        if ts.parse::<i64>().is_err() {
            return bad(errors, "unparsable timestamp");
        }
    }
    if fields.next().is_some() {
        return bad(errors, "trailing garbage after sample");
    }
    labels.sort();
    Some(Sample {
        name: name.to_string(),
        labels,
        value,
        line_no,
    })
}

fn split_label_pairs(body: &str) -> Vec<&str> {
    let mut pairs = Vec::new();
    let mut start = 0;
    let mut in_quotes = false;
    let mut escaped = false;
    for (i, c) in body.char_indices() {
        match c {
            '\\' if in_quotes => escaped = !escaped,
            '"' if !escaped => in_quotes = !in_quotes,
            ',' if !in_quotes => {
                pairs.push(&body[start..i]);
                start = i + 1;
            }
            _ => escaped = false,
        }
        if c != '\\' {
            escaped = false;
        }
    }
    if start < body.len() {
        pairs.push(&body[start..]);
    }
    pairs
}

fn has_invalid_escape(v: &str) -> bool {
    let mut chars = v.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            match chars.next() {
                Some('\\') | Some('"') | Some('n') => {}
                _ => return true,
            }
        } else if c == '"' {
            return true; // unescaped quote inside a value
        }
    }
    false
}

/// Validates Prometheus text exposition format.
///
/// Checks, per the exposition spec and the subset CI relies on:
///
/// * every sample's metric family has `# HELP` and `# TYPE` lines that
///   appear **before** its first sample, with a known type, at most once;
/// * metric and label names are well-formed, label values are quoted with
///   valid escapes, sample values parse;
/// * histogram families have `_sum` and `_count` series, a `le="+Inf"`
///   bucket whose value equals `_count`, and cumulative bucket counts
///   that are monotone non-decreasing in ascending `le`.
///
/// Returns all violations found (empty `Ok(())` when clean).
///
/// # Errors
///
/// `Err` carries one message per violation, with line numbers.
pub fn lint_prometheus(text: &str) -> Result<(), Vec<String>> {
    let mut errors: Vec<String> = Vec::new();
    let mut types: HashMap<String, String> = HashMap::new();
    let mut helps: HashSet<String> = HashSet::new();
    let mut samples: Vec<Sample> = Vec::new();
    let mut declared_before: HashSet<String> = HashSet::new();
    let mut sampled: HashSet<String> = HashSet::new();

    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# ") {
            let mut parts = rest.splitn(3, ' ');
            match (parts.next(), parts.next(), parts.next()) {
                (Some("HELP"), Some(name), _) => {
                    if !helps.insert(name.to_string()) {
                        errors.push(format!("line {line_no}: duplicate HELP for {name}"));
                    }
                }
                (Some("TYPE"), Some(name), Some(ty)) => {
                    if !matches!(
                        ty,
                        "counter" | "gauge" | "histogram" | "summary" | "untyped"
                    ) {
                        errors.push(format!("line {line_no}: unknown TYPE {ty:?} for {name}"));
                    }
                    if types.insert(name.to_string(), ty.to_string()).is_some() {
                        errors.push(format!("line {line_no}: duplicate TYPE for {name}"));
                    }
                    if sampled.contains(name) {
                        errors.push(format!(
                            "line {line_no}: TYPE for {name} appears after its samples"
                        ));
                    }
                    declared_before.insert(name.to_string());
                }
                (Some("TYPE"), Some(name), None) => {
                    errors.push(format!("line {line_no}: TYPE without a type for {name}"));
                }
                _ => errors.push(format!("line {line_no}: malformed comment: {line:?}")),
            }
            continue;
        }
        if line.starts_with('#') {
            continue; // plain comment
        }
        if let Some(s) = parse_sample(line, line_no, &mut errors) {
            let family = family_of(&s.name, &types);
            sampled.insert(family.clone());
            if !declared_before.contains(&family) {
                errors.push(format!(
                    "line {line_no}: sample of {family} before (or without) its # TYPE",
                ));
            }
            if !helps.contains(&family) {
                errors.push(format!("line {line_no}: no # HELP for {family}"));
            }
            samples.push(s);
        }
    }

    // Histogram family checks.
    for (family, ty) in &types {
        if ty != "histogram" {
            continue;
        }
        // Group buckets by label set (minus `le`).
        type BucketsBySeries = BTreeMap<Vec<(String, String)>, Vec<(f64, f64, usize)>>;
        let mut buckets: BucketsBySeries = BTreeMap::new();
        let mut sums: HashSet<Vec<(String, String)>> = HashSet::new();
        let mut counts: HashMap<Vec<(String, String)>, f64> = HashMap::new();
        for s in &samples {
            if s.name == format!("{family}_bucket") {
                let le = s.labels.iter().find(|(k, _)| k == "le");
                let Some((_, le)) = le else {
                    errors.push(format!("line {}: {family}_bucket without le", s.line_no));
                    continue;
                };
                let le_val = match le.as_str() {
                    "+Inf" => f64::INFINITY,
                    v => match v.parse::<f64>() {
                        Ok(v) => v,
                        Err(_) => {
                            errors.push(format!("line {}: bad le value {le:?}", s.line_no));
                            continue;
                        }
                    },
                };
                let base: Vec<(String, String)> = s
                    .labels
                    .iter()
                    .filter(|(k, _)| k != "le")
                    .cloned()
                    .collect();
                buckets
                    .entry(base)
                    .or_default()
                    .push((le_val, s.value, s.line_no));
            } else if s.name == format!("{family}_sum") {
                sums.insert(s.labels.clone());
            } else if s.name == format!("{family}_count") {
                counts.insert(s.labels.clone(), s.value);
            }
        }
        if buckets.is_empty() {
            errors.push(format!("histogram {family} has no _bucket series"));
        }
        for (base, mut series) in buckets {
            let label_desc = if base.is_empty() {
                String::from("{}")
            } else {
                format!("{base:?}")
            };
            series.sort_by(|a, b| a.0.total_cmp(&b.0));
            if series.last().map(|(le, _, _)| *le) != Some(f64::INFINITY) {
                errors.push(format!(
                    "histogram {family}{label_desc}: missing le=\"+Inf\""
                ));
            }
            for w in series.windows(2) {
                if w[1].1 < w[0].1 {
                    errors.push(format!(
                        "line {}: histogram {family}{label_desc}: bucket counts not monotone \
                         ({} after {})",
                        w[1].2, w[1].1, w[0].1
                    ));
                }
            }
            if !sums.contains(&base) {
                errors.push(format!("histogram {family}{label_desc}: missing _sum"));
            }
            match counts.get(&base) {
                None => errors.push(format!("histogram {family}{label_desc}: missing _count")),
                Some(count) => {
                    if let Some((le, v, line)) = series.last() {
                        if le.is_infinite() && v != count {
                            errors.push(format!(
                                "line {line}: histogram {family}{label_desc}: le=\"+Inf\" ({v}) \
                                 != _count ({count})"
                            ));
                        }
                    }
                }
            }
        }
    }

    if errors.is_empty() {
        Ok(())
    } else {
        Err(errors)
    }
}

/// The metric family a sample belongs to: histograms/summaries expose
/// `name_bucket` / `name_sum` / `name_count` child series.
fn family_of(sample_name: &str, types: &HashMap<String, String>) -> String {
    for suffix in ["_bucket", "_sum", "_count"] {
        if let Some(base) = sample_name.strip_suffix(suffix) {
            if let Some(ty) = types.get(base) {
                if ty == "histogram" || ty == "summary" {
                    return base.to_string();
                }
            }
        }
    }
    sample_name.to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Registry;

    fn populated() -> Registry {
        let _switches = crate::hold_switches();
        let reg = Registry::new();
        reg.counter("oi_reads_total", "Reads", &[("disk", "0")])
            .inc_by(7);
        reg.counter("oi_reads_total", "Reads", &[("disk", "1")])
            .inc_by(9);
        reg.gauge("oi_queue_depth", "Depth", &[]).set(3);
        let h = reg.histogram("oi_read_latency_ns", "Read latency", &[("disk", "0")]);
        for v in [100u64, 200, 300, 5000, 100_000] {
            h.record(v);
        }
        reg
    }

    #[test]
    fn prometheus_roundtrips_through_the_linter() {
        let reg = populated();
        let text = reg.prometheus();
        assert!(text.contains("# HELP oi_reads_total Reads"));
        assert!(text.contains("# TYPE oi_read_latency_ns histogram"));
        assert!(text.contains("oi_read_latency_ns_bucket{disk=\"0\",le=\"+Inf\"} 5"));
        assert!(text.contains("oi_read_latency_ns_count{disk=\"0\"} 5"));
        lint_prometheus(&text).expect("clean exposition");
    }

    #[test]
    fn json_is_structurally_sound() {
        let reg = populated();
        let j = reg.json();
        assert!(j.starts_with("{\"metrics\":["));
        assert!(j.contains("\"name\":\"oi_reads_total\""));
        assert!(j.contains("\"p50\":"));
        assert!(j.contains("\"buckets\":[["));
        // Balanced braces/brackets (cheap structural check, no parser).
        for (open, close) in [('{', '}'), ('[', ']')] {
            let o = j.matches(open).count();
            let c = j.matches(close).count();
            assert_eq!(o, c, "balanced {open}{close}");
        }
    }

    #[test]
    fn escaping_survives_hostile_label_values() {
        let _switches = crate::hold_switches();
        let reg = Registry::new();
        reg.counter(
            "m_total",
            "with \"quotes\" and \\slashes\\",
            &[("path", "a\"b\\c\nd")],
        )
        .inc();
        let text = reg.prometheus();
        lint_prometheus(&text).expect("escaped exposition lints clean");
        let j = reg.json();
        assert!(j.contains("a\\\"b\\\\c\\nd"));
    }

    #[test]
    fn linter_catches_missing_type() {
        let text = "oi_x_total 5\n";
        let errs = lint_prometheus(text).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("# TYPE")), "{errs:?}");
    }

    #[test]
    fn linter_catches_nonmonotone_buckets() {
        let text = "\
# HELP h H
# TYPE h histogram
h_bucket{le=\"1\"} 5
h_bucket{le=\"2\"} 3
h_bucket{le=\"+Inf\"} 5
h_sum 10
h_count 5
";
        let errs = lint_prometheus(text).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("not monotone")), "{errs:?}");
    }

    #[test]
    fn linter_catches_missing_inf_sum_count() {
        let text = "\
# HELP h H
# TYPE h histogram
h_bucket{le=\"1\"} 5
";
        let errs = lint_prometheus(text).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("+Inf")), "{errs:?}");
        assert!(errs.iter().any(|e| e.contains("_sum")), "{errs:?}");
        assert!(errs.iter().any(|e| e.contains("_count")), "{errs:?}");
    }

    #[test]
    fn linter_catches_inf_count_mismatch() {
        let text = "\
# HELP h H
# TYPE h histogram
h_bucket{le=\"+Inf\"} 4
h_sum 10
h_count 5
";
        let errs = lint_prometheus(text).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("!= _count")), "{errs:?}");
    }

    #[test]
    fn linter_catches_bad_labels_and_values() {
        let errs = lint_prometheus("# HELP m M\n# TYPE m counter\nm{9bad=\"x\"} 1\n").unwrap_err();
        assert!(errs.iter().any(|e| e.contains("invalid label name")));
        let errs = lint_prometheus("# HELP m M\n# TYPE m counter\nm{a=unquoted} 1\n").unwrap_err();
        assert!(errs.iter().any(|e| e.contains("not quoted")));
        let errs = lint_prometheus("# HELP m M\n# TYPE m counter\nm nope\n").unwrap_err();
        assert!(errs.iter().any(|e| e.contains("unparsable sample value")));
        let errs = lint_prometheus("# TYPE m bogus\n# HELP m M\nm 1\n").unwrap_err();
        assert!(errs.iter().any(|e| e.contains("unknown TYPE")));
    }

    #[test]
    fn linter_accepts_inf_values_and_timestamps() {
        let text = "\
# HELP g G
# TYPE g gauge
g{a=\"b\"} +Inf 1700000000
";
        lint_prometheus(text).expect("inf + timestamp are legal");
    }
}
