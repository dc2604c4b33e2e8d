//! Exposition-format conformance: a minimal in-tree parser for the
//! Prometheus / OpenMetrics text formats validates what the registry
//! emits — HELP/TYPE family headers, label escaping, histogram series
//! shape and exemplar annotations — instead of spot-checking substrings.

use mnv_metrics::{Label, Registry};

/// One parsed sample line.
#[derive(Debug)]
struct Sample {
    /// Full series name (family name plus any `_bucket`/`_sum`/`_count`
    /// suffix).
    series: String,
    /// Parsed (unescaped) label pairs in source order.
    labels: Vec<(String, String)>,
    /// Sample value (all registry samples are integers).
    value: u64,
    /// Exemplar annotation, when present: (label pairs, value).
    exemplar: Option<(Vec<(String, String)>, u64)>,
}

/// A parsed exposition document.
#[derive(Debug, Default)]
struct Doc {
    /// (family name, type) in declaration order.
    families: Vec<(String, String)>,
    samples: Vec<Sample>,
    /// Whether the document ended with `# EOF`.
    eof: bool,
}

/// Parsed (unescaped) label pairs in source order.
type LabelPairs = Vec<(String, String)>;

/// Parse a `key="value"` label set starting at the `{`. Returns the pairs
/// and the rest of the line after the closing `}`. Escapes (`\\`, `\"`,
/// `\n`) are decoded; a raw newline cannot occur (lines are split first),
/// and a raw `"` inside a value is unrepresentable — the parse fails on
/// malformed input instead.
fn parse_labels(s: &str) -> Result<(LabelPairs, &str), String> {
    let mut rest = s
        .strip_prefix('{')
        .ok_or_else(|| format!("expected '{{' in {s:?}"))?;
    let mut pairs = Vec::new();
    loop {
        if let Some(r) = rest.strip_prefix('}') {
            return Ok((pairs, r));
        }
        let eq = rest
            .find('=')
            .ok_or_else(|| format!("label without '=' in {s:?}"))?;
        let key = rest[..eq].to_string();
        if key.is_empty() || !key.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
            return Err(format!("bad label name {key:?}"));
        }
        rest = rest[eq + 1..]
            .strip_prefix('"')
            .ok_or_else(|| format!("unquoted label value in {s:?}"))?;
        let mut value = String::new();
        let mut chars = rest.char_indices();
        let after = loop {
            let (i, c) = chars.next().ok_or("unterminated label value")?;
            match c {
                '"' => break i + 1,
                '\\' => match chars.next().ok_or("dangling backslash")?.1 {
                    '\\' => value.push('\\'),
                    '"' => value.push('"'),
                    'n' => value.push('\n'),
                    e => return Err(format!("bad escape \\{e}")),
                },
                c => value.push(c),
            }
        };
        pairs.push((key, value));
        rest = &rest[after..];
        if let Some(r) = rest.strip_prefix(',') {
            rest = r;
        }
    }
}

/// Parse a sample value: `u64`, or `+Inf`-free integer exemplar values.
fn parse_value(s: &str) -> Result<u64, String> {
    s.parse::<u64>()
        .map_err(|e| format!("bad value {s:?}: {e}"))
}

fn parse_exposition(text: &str) -> Result<Doc, String> {
    let mut doc = Doc::default();
    let mut pending_help: Option<String> = None;
    for line in text.lines() {
        if doc.eof {
            return Err(format!("content after # EOF: {line:?}"));
        }
        if line == "# EOF" {
            doc.eof = true;
            continue;
        }
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let (name, docstring) = rest
                .split_once(' ')
                .ok_or_else(|| format!("HELP without docstring: {line:?}"))?;
            if docstring.trim().is_empty() {
                return Err(format!("empty HELP docstring: {line:?}"));
            }
            if pending_help.is_some() {
                return Err(format!("HELP not followed by TYPE before {line:?}"));
            }
            pending_help = Some(name.to_string());
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let (name, kind) = rest
                .split_once(' ')
                .ok_or_else(|| format!("TYPE without kind: {line:?}"))?;
            if !matches!(kind, "counter" | "gauge" | "histogram") {
                return Err(format!("unknown TYPE {kind:?}"));
            }
            if pending_help.as_deref() != Some(name) {
                return Err(format!("TYPE {name} not preceded by its HELP"));
            }
            pending_help = None;
            doc.families.push((name.to_string(), kind.to_string()));
            continue;
        }
        if line.starts_with('#') {
            return Err(format!("unknown comment line {line:?}"));
        }
        // Sample: `series[{labels}] value[ # {labels} value]`.
        let (body, exemplar) = match line.split_once(" # ") {
            Some((body, ex)) => {
                let (pairs, rest) = parse_labels(ex)?;
                let ex_value = parse_value(rest.trim())?;
                (body, Some((pairs, ex_value)))
            }
            None => (line, None),
        };
        let brace = body.find('{');
        let (series, rest) = match brace {
            Some(b) => {
                let (pairs, rest) = parse_labels(&body[b..])?;
                (body[..b].to_string(), (pairs, rest))
            }
            None => {
                let (series, v) = body
                    .split_once(' ')
                    .ok_or_else(|| format!("sample without value: {line:?}"))?;
                (series.to_string(), (Vec::new(), v))
            }
        };
        let (labels, value_str) = rest;
        let value = parse_value(value_str.trim())?;
        doc.samples.push(Sample {
            series,
            labels,
            value,
            exemplar,
        });
    }
    if pending_help.is_some() {
        return Err("trailing HELP without TYPE".into());
    }
    Ok(doc)
}

impl Doc {
    /// The family a sample series belongs to, honouring histogram
    /// suffixes. `None` when the series matches no declared family.
    fn family_of(&self, series: &str) -> Option<&(String, String)> {
        self.families.iter().find(|(name, kind)| {
            series == name
                || (kind == "histogram"
                    && [("_bucket"), ("_sum"), ("_count")]
                        .iter()
                        .any(|suf| series.strip_suffix(suf) == Some(name)))
        })
    }
}

fn populated_registry() -> Registry {
    let r = Registry::enabled();
    r.add("hypercalls", Label::Vm(1), 41);
    r.add("hypercalls", Label::Vm(2), 1);
    r.set("vm_count", Label::Machine, 2);
    r.add("axi_reads", Label::Iface("evil\"}\nmnv_forged 9\\"), 3);
    for _ in 0..99 {
        r.observe("req_latency", Label::Iface("fft"), 2_000, 0);
    }
    r.observe("req_latency", Label::Iface("fft"), 5_000_000, 77);
    r.observe("req_latency", Label::Prr(2), 1_500, 12);
    r
}

#[test]
fn prometheus_exposition_parses_clean() {
    let doc = parse_exposition(&populated_registry().prometheus()).expect("conformant");
    assert!(!doc.eof, "classic exposition has no EOF marker");
    // Every sample belongs to a declared family of the right type.
    for s in &doc.samples {
        let (_, kind) = doc
            .family_of(&s.series)
            .unwrap_or_else(|| panic!("sample {} outside any TYPE family", s.series));
        if s.series.ends_with("_bucket") {
            assert_eq!(kind, "histogram", "{}", s.series);
        }
        assert!(
            s.exemplar.is_none(),
            "classic exposition must not carry exemplars"
        );
    }
    let kinds: Vec<&str> = doc.families.iter().map(|(_, k)| k.as_str()).collect();
    assert!(kinds.contains(&"counter"));
    assert!(kinds.contains(&"gauge"));
    assert!(kinds.contains(&"histogram"));
}

#[test]
fn hostile_label_values_survive_the_round_trip() {
    let doc = parse_exposition(&populated_registry().prometheus()).expect("conformant");
    let hostile = doc
        .samples
        .iter()
        .find(|s| s.series == "mnv_axi_reads")
        .expect("hostile series present");
    // The parser unescapes back to the exact original value — nothing
    // leaked out of the quoted string and no sample line was forged.
    assert_eq!(
        hostile.labels,
        vec![("iface".to_string(), "evil\"}\nmnv_forged 9\\".to_string())]
    );
    assert!(!doc.samples.iter().any(|s| s.series.contains("forged")));
}

#[test]
fn histogram_series_are_cumulative_and_consistent() {
    let doc = parse_exposition(&populated_registry().prometheus()).expect("conformant");
    for label in [("iface", "fft"), ("prr", "2")] {
        let buckets: Vec<&Sample> = doc
            .samples
            .iter()
            .filter(|s| {
                s.series == "mnv_req_latency_bucket"
                    && s.labels
                        .iter()
                        .any(|(k, v)| (k.as_str(), v.as_str()) == label)
            })
            .collect();
        assert!(!buckets.is_empty(), "{label:?}");
        // Cumulative counts never decrease; every bucket carries `le`.
        let mut prev = 0;
        for b in &buckets {
            assert!(b.labels.iter().any(|(k, _)| k == "le"), "{b:?}");
            assert!(b.value >= prev, "non-cumulative bucket: {b:?}");
            prev = b.value;
        }
        // The +Inf bucket equals the _count sample.
        let inf = buckets
            .iter()
            .find(|b| b.labels.iter().any(|(k, v)| k == "le" && v == "+Inf"))
            .expect("+Inf bucket present");
        let count = doc
            .samples
            .iter()
            .find(|s| {
                s.series == "mnv_req_latency_count"
                    && s.labels
                        .iter()
                        .any(|(k, v)| (k.as_str(), v.as_str()) == label)
            })
            .expect("_count present");
        assert_eq!(inf.value, count.value);
    }
}

#[test]
fn openmetrics_exemplars_are_well_formed_and_terminated() {
    let doc = parse_exposition(&populated_registry().openmetrics()).expect("conformant");
    assert!(doc.eof, "OpenMetrics exposition must end with # EOF");
    let exemplars: Vec<&Sample> = doc
        .samples
        .iter()
        .filter(|s| s.exemplar.is_some())
        .collect();
    assert!(!exemplars.is_empty(), "tail exemplars expected");
    for s in &exemplars {
        assert!(
            s.series.ends_with("_bucket"),
            "exemplars only on bucket lines: {}",
            s.series
        );
        let (labels, value) = s.exemplar.as_ref().unwrap();
        assert_eq!(labels.len(), 1, "{labels:?}");
        let (k, v) = &labels[0];
        assert_eq!(k, "req_id");
        assert!(v.parse::<u32>().is_ok(), "{v:?}");
        assert!(*value > 0);
    }
    // The fft outlier request (77) is among the annotated exemplars.
    assert!(exemplars.iter().any(|s| {
        s.exemplar.as_ref().unwrap().0[0].1 == "77"
            && s.labels.iter().any(|(k, v)| k == "iface" && v == "fft")
    }));
}

#[test]
fn parser_rejects_malformed_documents() {
    // The validator itself must have teeth, or the tests above prove
    // nothing: feed it documents broken in each dimension it checks.
    for bad in [
        "mnv_x{vm=\"1} 3",                        // unterminated label value
        "mnv_x{vm=1} 3",                          // unquoted label value
        "mnv_x 3 # {req_id=\"9\"",                // truncated exemplar
        "# TYPE mnv_x counter\nmnv_x 1",          // TYPE without HELP
        "# HELP mnv_x doc.\n# TYPE mnv_x blob\n", // unknown type
        "# EOF\nmnv_x 1",                         // content after EOF
        "mnv_x{vm=\"1\"} nan",                    // non-integer value
    ] {
        assert!(parse_exposition(bad).is_err(), "accepted: {bad:?}");
    }
}
