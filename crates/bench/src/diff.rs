//! Structural report diffing: compare two report JSON documents and
//! list every out-of-tolerance drift.
//!
//! `paper diff a.json b.json [--tolerance pct]` walks both documents
//! in lockstep. Numbers (any flavor: signed, unsigned, float) compare
//! by relative delta against the tolerance percentage — a tolerance of
//! zero demands exact equality. Everything else (strings, booleans,
//! nulls, object key sets, array lengths) must match exactly; arrays
//! recurse element-wise, which is how two metrics timelines align
//! sample by sample. The walk is total: every drift is reported with
//! its JSON path, not just the first.

use rce_common::json::JsonValue;

/// One out-of-tolerance difference between the documents.
#[derive(Debug, Clone, PartialEq)]
pub struct Drift {
    /// JSON path to the differing node, e.g. `$.rows[3].cycles`.
    pub path: String,
    /// What differs, human-readable.
    pub detail: String,
}

impl std::fmt::Display for Drift {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.path, self.detail)
    }
}

/// Compare two documents. `tolerance_pct` is the allowed relative
/// drift for numeric leaves, in percent (0 = exact).
pub fn diff_values(a: &JsonValue, b: &JsonValue, tolerance_pct: f64) -> Vec<Drift> {
    let mut out = Vec::new();
    walk("$", a, b, tolerance_pct, &mut out);
    out
}

/// Parse a `--tolerance` percentage. Only finite, non-negative values
/// are meaningful: a NaN or infinite tolerance would absorb every
/// numeric drift (`rel > tol` is never true), and a negative one has no
/// reading, so both are rejected.
pub fn parse_tolerance(s: &str) -> Option<f64> {
    s.parse::<f64>().ok().filter(|t| t.is_finite() && *t >= 0.0)
}

fn num(v: &JsonValue) -> Option<f64> {
    match v {
        JsonValue::Int(i) => Some(*i as f64),
        JsonValue::UInt(u) => Some(*u as f64),
        JsonValue::Float(f) => Some(*f),
        _ => None,
    }
}

fn kind(v: &JsonValue) -> &'static str {
    match v {
        JsonValue::Null => "null",
        JsonValue::Bool(_) => "bool",
        JsonValue::Int(_) | JsonValue::UInt(_) | JsonValue::Float(_) => "number",
        JsonValue::Str(_) => "string",
        JsonValue::Array(_) => "array",
        JsonValue::Object(_) => "object",
    }
}

fn walk(path: &str, a: &JsonValue, b: &JsonValue, tol: f64, out: &mut Vec<Drift>) {
    if let (Some(x), Some(y)) = (num(a), num(b)) {
        if x == y {
            return;
        }
        // A zero baseline has no meaningful relative delta: a counter
        // that was 0 and became nonzero (or vice versa) is a behavior
        // change, not drift, so it compares exactly no matter how
        // generous the tolerance is.
        if x == 0.0 || y == 0.0 {
            out.push(Drift {
                path: path.to_string(),
                detail: format!("{x} vs {y} (zero baseline compares exactly)"),
            });
            return;
        }
        let rel = (x - y).abs() / x.abs().max(y.abs()) * 100.0;
        if rel > tol {
            out.push(Drift {
                path: path.to_string(),
                detail: format!("{x} vs {y} ({rel:.3}% > {tol}% tolerance)"),
            });
        }
        return;
    }
    match (a, b) {
        (JsonValue::Null, JsonValue::Null) => {}
        (JsonValue::Bool(x), JsonValue::Bool(y)) if x == y => {}
        (JsonValue::Str(x), JsonValue::Str(y)) if x == y => {}
        (JsonValue::Bool(_), JsonValue::Bool(_)) | (JsonValue::Str(_), JsonValue::Str(_)) => {
            out.push(Drift {
                path: path.to_string(),
                detail: format!(
                    "{} vs {}",
                    rce_common::json::to_string(a),
                    rce_common::json::to_string(b)
                ),
            });
        }
        (JsonValue::Array(x), JsonValue::Array(y)) => {
            if x.len() != y.len() {
                out.push(Drift {
                    path: path.to_string(),
                    detail: format!("array length {} vs {}", x.len(), y.len()),
                });
            }
            for (i, (xa, yb)) in x.iter().zip(y.iter()).enumerate() {
                walk(&format!("{path}[{i}]"), xa, yb, tol, out);
            }
        }
        (JsonValue::Object(x), JsonValue::Object(y)) => {
            for (k, xv) in x {
                match y.iter().find(|(yk, _)| yk == k) {
                    Some((_, yv)) => walk(&format!("{path}.{k}"), xv, yv, tol, out),
                    None => out.push(Drift {
                        path: format!("{path}.{k}"),
                        detail: "key only in first document".to_string(),
                    }),
                }
            }
            for (k, _) in y {
                if !x.iter().any(|(xk, _)| xk == k) {
                    out.push(Drift {
                        path: format!("{path}.{k}"),
                        detail: "key only in second document".to_string(),
                    });
                }
            }
        }
        _ => out.push(Drift {
            path: path.to_string(),
            detail: format!("type {} vs {}", kind(a), kind(b)),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rce_common::json;

    fn v(s: &str) -> JsonValue {
        JsonValue::parse(s).unwrap()
    }

    #[test]
    fn self_diff_is_empty() {
        let a = v(r#"{"cycles": 100, "rows": [{"x": 1.5}, {"x": null}], "name": "ce"}"#);
        assert!(diff_values(&a, &a, 0.0).is_empty());
    }

    #[test]
    fn counter_drift_is_reported_with_its_path() {
        let a = v(r#"{"data": {"rows": [{"cycles": 100}, {"cycles": 200}]}}"#);
        let b = v(r#"{"data": {"rows": [{"cycles": 100}, {"cycles": 230}]}}"#);
        let d = diff_values(&a, &b, 0.0);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].path, "$.data.rows[1].cycles");
        assert!(d[0].detail.contains("200"), "{}", d[0].detail);
    }

    #[test]
    fn tolerance_absorbs_small_numeric_drift_only() {
        let a = v(r#"{"t": 1000, "u": 1000}"#);
        let b = v(r#"{"t": 1010, "u": 1200}"#);
        // 1% drift passes at 2% tolerance; 20% does not.
        let d = diff_values(&a, &b, 2.0);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].path, "$.u");
        // Zero tolerance means exact.
        assert_eq!(diff_values(&a, &b, 0.0).len(), 2);
    }

    #[test]
    fn zero_baseline_mismatch_ignores_tolerance() {
        let a = v(r#"{"exceptions": 0, "cycles": 1000}"#);
        let b = v(r#"{"exceptions": 3, "cycles": 1000}"#);
        // Even an absurdly generous tolerance cannot absorb a counter
        // appearing out of nothing — 0 vs 3 is a behavior change.
        for tol in [0.0, 50.0, 100.0, 1e6] {
            let d = diff_values(&a, &b, tol);
            assert_eq!(d.len(), 1, "tolerance {tol}");
            assert_eq!(d[0].path, "$.exceptions");
            assert!(d[0].detail.contains("zero baseline"), "{}", d[0].detail);
        }
        // Symmetric: nonzero baseline dropping to zero drifts too.
        assert_eq!(diff_values(&b, &a, 1e6).len(), 1);
        // Both zero is equal, not a drift.
        assert!(diff_values(&a, &a, 0.0).is_empty());
    }

    #[test]
    fn only_finite_non_negative_tolerances_parse() {
        assert_eq!(parse_tolerance("0"), Some(0.0));
        assert_eq!(parse_tolerance("2"), Some(2.0));
        assert_eq!(parse_tolerance("0.5"), Some(0.5));
        for bad in [
            "nan", "NaN", "inf", "-inf", "infinity", "1e400", "-1", "-0.5", "", "x",
        ] {
            assert_eq!(parse_tolerance(bad), None, "{bad:?}");
        }
    }

    #[test]
    fn signed_unsigned_and_float_flavors_compare_by_value() {
        let a = JsonValue::Object(vec![("n".into(), JsonValue::UInt(5))]);
        let b = JsonValue::Object(vec![("n".into(), JsonValue::Float(5.0))]);
        assert!(diff_values(&a, &b, 0.0).is_empty());
    }

    #[test]
    fn key_set_and_shape_changes_always_drift() {
        let a = v(r#"{"x": 1, "gone": 2, "arr": [1, 2, 3], "s": "a"}"#);
        let b = v(r#"{"x": 1, "added": 2, "arr": [1, 2], "s": "b"}"#);
        let d = diff_values(&a, &b, 100.0);
        let paths: Vec<&str> = d.iter().map(|x| x.path.as_str()).collect();
        assert!(paths.contains(&"$.gone"));
        assert!(paths.contains(&"$.added"));
        assert!(paths.contains(&"$.arr"));
        assert!(paths.contains(&"$.s"), "strings never tolerate drift");
        // Type mismatches drift too.
        let d = diff_values(&v("[1]"), &v(r#"{"a": 1}"#), 0.0);
        assert_eq!(d[0].detail, "type array vs object");
    }

    #[test]
    fn timelines_align_sample_by_sample() {
        let a =
            v(r#"{"samples": [{"cycle": 4096, "noc_msgs": 10}, {"cycle": 8192, "noc_msgs": 12}]}"#);
        let b =
            v(r#"{"samples": [{"cycle": 4096, "noc_msgs": 10}, {"cycle": 8192, "noc_msgs": 50}]}"#);
        let d = diff_values(&a, &b, 5.0);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].path, "$.samples[1].noc_msgs");
    }

    #[test]
    fn drift_on_a_real_report_roundtrip_is_caught() {
        // A report self-diffs clean; bump one counter and it drifts.
        let text = json::to_string(&JsonValue::Object(vec![
            ("mem_ops".into(), JsonValue::UInt(400)),
            ("noc".into(), v(r#"{"bytes": 12345}"#)),
        ]));
        let a = JsonValue::parse(&text).unwrap();
        let mut b = a.clone();
        if let JsonValue::Object(fields) = &mut b {
            fields[0].1 = JsonValue::UInt(401);
        }
        assert!(diff_values(&a, &a, 0.0).is_empty());
        let d = diff_values(&a, &b, 0.0);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].path, "$.mem_ops");
    }
}
