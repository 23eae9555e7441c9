//! The claims checker: read generated results and verify the paper's
//! three headline claims automatically.
//!
//! `paper summary` loads `results/R-*.json` (produced by `paper all`)
//! and evaluates:
//!
//! - **C1** — CE+ improves run time and energy over CE, by removing
//!   CE's off-chip metadata accesses.
//! - **C2** — CE+ keeps stressing the on-chip network (its traffic
//!   stays CE-like and its relative run time does not improve as cores
//!   grow).
//! - **C3** — ARC outperforms CE, is competitive with CE+ on average,
//!   and loads the NoC and memory network much less.
//!
//! Each claim is reported with the measured evidence and a PASS/FAIL
//! verdict, so a regression in the models that silently broke a
//! headline result is caught by reading one table (and by the unit
//! tests that run the checker on synthetic inputs).

use rce_common::json::JsonValue as Value;
use rce_common::table::Table;
use std::path::Path;

/// One evaluated claim.
#[derive(Debug, Clone)]
pub struct ClaimResult {
    /// Claim ID ("C1", "C2", "C3").
    pub id: &'static str,
    /// What the paper asserts.
    pub claim: &'static str,
    /// The measured evidence, human-readable.
    pub evidence: String,
    /// Did the measurements support the claim?
    pub pass: bool,
}

/// Read and parse `<dir>/<id>.json`; the error names the file.
fn load(dir: &Path, id: &str) -> Result<(Value, String), String> {
    let path = dir.join(format!("{id}.json"));
    let name = path.display().to_string();
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("{name}: cannot read ({e}) — run `paper all` first"))?;
    let fig = Value::parse(&text).map_err(|e| format!("{name}: not valid JSON ({e})"))?;
    Ok((fig, name))
}

/// The numeric `field` of `row`, or an error naming the file and row.
fn number(row: &Value, field: &str, file: &str, which: &str) -> Result<f64, String> {
    row[field]
        .as_f64()
        .ok_or_else(|| format!("{file}: {which} has no numeric \"{field}\" field"))
}

/// The rows of a figure's `data.rows` array.
fn rows<'a>(fig: &'a Value, file: &str) -> Result<&'a [Value], String> {
    fig["data"]["rows"]
        .as_array()
        .map(Vec::as_slice)
        .ok_or_else(|| format!("{file}: no data.rows array"))
}

/// The CE, CE+ and ARC values of the geomean row of `<dir>/<id>.json`.
fn geomeans(dir: &Path, id: &str) -> Result<[f64; 3], String> {
    let (fig, file) = load(dir, id)?;
    let row = rows(&fig, &file)?
        .iter()
        .find(|r| r["workload"] == "geomean")
        .ok_or_else(|| format!("{file}: no geomean row"))?;
    let design = |d| number(row, d, &file, "the geomean row");
    Ok([design("CE")?, design("CE+")?, design("ARC")?])
}

/// Evaluate the claims against a results directory. The error names
/// the result file that is missing or malformed and what it lacks.
pub fn evaluate(dir: &Path) -> Result<Vec<ClaimResult>, String> {
    let [ce_rt, cep_rt, arc_rt] = geomeans(dir, "R-F1")?;
    let [ce_noc, cep_noc, arc_noc] = geomeans(dir, "R-F3")?;
    let [ce_dram, cep_dram, arc_dram] = geomeans(dir, "R-F4")?;

    // Scaling rows: CE+ and ARC run-time trend from min to max cores.
    let (f5, f5_file) = load(dir, "R-F5")?;
    let scaling = rows(&f5, &f5_file)?;
    let (Some(first), Some(last)) = (scaling.first(), scaling.last()) else {
        return Err(format!("{f5_file}: no scaling rows"));
    };
    let trend = |d| -> Result<(f64, f64), String> {
        Ok((
            number(first, d, &f5_file, "the first row")?,
            number(last, d, &f5_file, "the last row")?,
        ))
    };
    let cep_trend = trend("CE+")?;
    let arc_trend = trend("ARC")?;

    let mut out = Vec::new();

    // C1: CE+ < CE in run time, and CE's off-chip overhead disappears.
    let c1 = cep_rt < ce_rt && ce_dram > 1.1 && cep_dram < 1.1;
    out.push(ClaimResult {
        id: "C1",
        claim: "CE+ improves run time over CE by keeping metadata on-chip",
        evidence: format!(
            "runtime geomean CE {ce_rt:.3} -> CE+ {cep_rt:.3}; off-chip traffic CE \
             {ce_dram:.3}x vs CE+ {cep_dram:.3}x"
        ),
        pass: c1,
    });

    // C2: CE+'s NoC load stays CE-like (high), and its relative run
    // time does not improve with core count.
    let c2 = cep_noc > 1.05 && (cep_noc - ce_noc).abs() < 0.1 && cep_trend.1 >= cep_trend.0 - 0.01;
    out.push(ClaimResult {
        id: "C2",
        claim: "CE+ still stresses the on-chip interconnect (eager invalidation + piggybacks)",
        evidence: format!(
            "NoC geomean CE {ce_noc:.3}x, CE+ {cep_noc:.3}x; CE+ runtime trend {:.3} -> {:.3} \
             (min -> max cores)",
            cep_trend.0, cep_trend.1
        ),
        pass: c2,
    });

    // C3: ARC beats CE, is competitive with CE+ (within 10% or
    // better), and loads both networks much less.
    let c3 = arc_rt < ce_rt
        && arc_rt <= cep_rt * 1.1
        && arc_noc < cep_noc - 0.1
        && arc_dram <= cep_dram + 0.05
        && arc_trend.1 <= arc_trend.0;
    out.push(ClaimResult {
        id: "C3",
        claim: "ARC outperforms CE, is competitive with CE+, with far less network stress",
        evidence: format!(
            "runtime ARC {arc_rt:.3} vs CE {ce_rt:.3} / CE+ {cep_rt:.3}; NoC ARC {arc_noc:.3}x \
             vs CE+ {cep_noc:.3}x; off-chip ARC {arc_dram:.3}x; ARC trend {:.3} -> {:.3}",
            arc_trend.0, arc_trend.1
        ),
        pass: c3,
    });

    Ok(out)
}

/// Render the claims table.
pub fn render(claims: &[ClaimResult]) -> String {
    let mut t = Table::new(
        "Headline claims vs measurements",
        &["claim", "verdict", "evidence"],
    );
    for c in claims {
        t.row(vec![
            format!("{}: {}", c.id, c.claim),
            if c.pass { "PASS" } else { "FAIL" }.to_string(),
            c.evidence.clone(),
        ]);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rce_common::json;

    fn write_fig(dir: &Path, id: &str, data: Value) {
        std::fs::write(
            dir.join(format!("{id}.json")),
            json::to_string(&json!({"id": id, "data": data})),
        )
        .unwrap();
    }

    fn synthetic_results(dir: &Path, ce: f64, cep: f64, arc: f64) {
        let rows = |a: f64, b: f64, c: f64| {
            json!({"rows": [
                {"workload": "w1", "CE": a, "CE+": b, "ARC": c},
                {"workload": "geomean", "CE": a, "CE+": b, "ARC": c},
            ]})
        };
        write_fig(dir, "R-F1", rows(ce, cep, arc));
        write_fig(dir, "R-F3", rows(1.13, 1.13, 0.94));
        write_fig(dir, "R-F4", rows(1.68, 1.00, 0.99));
        write_fig(
            dir,
            "R-F5",
            json!({"rows": [
                {"cores": 8, "CE": ce, "CE+": cep, "ARC": 1.05},
                {"cores": 64, "CE": ce, "CE+": cep + 0.01, "ARC": 0.86},
            ]}),
        );
    }

    #[test]
    fn healthy_results_pass_all_claims() {
        let dir = std::env::temp_dir().join("rce_summary_ok");
        std::fs::create_dir_all(&dir).unwrap();
        synthetic_results(&dir, 1.105, 1.034, 0.932);
        let claims = evaluate(&dir).expect("results present");
        assert_eq!(claims.len(), 3);
        for c in &claims {
            assert!(c.pass, "{}: {}", c.id, c.evidence);
        }
        let rendered = render(&claims);
        assert!(rendered.contains("PASS"));
        assert!(!rendered.contains("FAIL"));
    }

    #[test]
    fn regressions_fail_the_right_claim() {
        let dir = std::env::temp_dir().join("rce_summary_bad");
        std::fs::create_dir_all(&dir).unwrap();
        // CE+ slower than CE: C1 must fail.
        synthetic_results(&dir, 1.0, 1.3, 0.95);
        let claims = evaluate(&dir).unwrap();
        assert!(!claims[0].pass, "C1 should fail");
    }

    #[test]
    fn missing_or_malformed_results_name_the_file() {
        let dir = std::env::temp_dir().join("rce_summary_missing");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let err = evaluate(&dir).unwrap_err();
        assert!(
            err.contains("R-F1.json") && err.contains("paper all"),
            "{err}"
        );

        // A present but malformed file is named with what it lacks,
        // not reported as missing.
        synthetic_results(&dir, 1.105, 1.034, 0.932);
        write_fig(
            &dir,
            "R-F1",
            json!({"rows": [{"workload": "geomean", "CE": "x"}]}),
        );
        let err = evaluate(&dir).unwrap_err();
        assert!(err.contains("R-F1.json"), "{err}");
        assert!(
            err.contains("\"CE\"") && !err.contains("paper all"),
            "{err}"
        );
        synthetic_results(&dir, 1.105, 1.034, 0.932);
        std::fs::write(dir.join("R-F4.json"), "not json").unwrap();
        let err = evaluate(&dir).unwrap_err();
        assert!(
            err.contains("R-F4.json") && err.contains("not valid JSON"),
            "{err}"
        );
    }
}
