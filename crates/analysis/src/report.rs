//! Machine-readable findings: the `swiftrl-findings-v2` JSON schema and
//! SARIF 2.1.0 export. Every rule is an error, so neither document carries
//! a per-finding severity of its own beyond SARIF's required `level`.
//!
//! All serialization goes through the shared hand-rolled
//! [`swiftrl_telemetry::json`] layer (the telemetry crate sits at the
//! bottom of the dependency graph and is itself dependency-free, so this
//! keeps the analyzer's zero-external-dependency policy intact).

use swiftrl_telemetry::json::Json;

use crate::rules::{Finding, RULES};

fn finding_json(f: &Finding) -> Json {
    Json::obj([
        ("rule", Json::str(f.rule)),
        ("file", Json::str(f.file.display().to_string())),
        ("line", Json::UInt(u64::from(f.line))),
        ("message", Json::str(f.message.clone())),
    ])
}

/// Renders an analysis as the `swiftrl-findings-v2` document.
pub fn findings_json(files_scanned: usize, findings: &[Finding]) -> Json {
    Json::obj([
        ("schema", Json::str("swiftrl-findings-v2")),
        ("files_scanned", Json::UInt(files_scanned as u64)),
        ("findings", Json::Arr(findings.iter().map(finding_json).collect())),
    ])
}

/// Renders an analysis as a SARIF 2.1.0 document (one run, one driver,
/// every registered rule described, one `error` result per finding).
pub fn sarif_json(findings: &[Finding]) -> Json {
    let rules = Json::Arr(
        RULES
            .iter()
            .map(|r| {
                Json::obj([
                    ("id", Json::str(r.id)),
                    (
                        "shortDescription",
                        Json::obj([("text", Json::str(r.title))]),
                    ),
                    (
                        "fullDescription",
                        Json::obj([("text", Json::str(r.explain))]),
                    ),
                    ("help", Json::obj([("text", Json::str(r.fix_hint))])),
                    (
                        "defaultConfiguration",
                        Json::obj([("level", Json::str("error"))]),
                    ),
                ])
            })
            .collect(),
    );
    let results = Json::Arr(
        findings
            .iter()
            .map(|f| {
                Json::obj([
                    ("ruleId", Json::str(f.rule)),
                    ("level", Json::str("error")),
                    ("message", Json::obj([("text", Json::str(f.message.clone()))])),
                    (
                        "locations",
                        Json::Arr(vec![Json::obj([(
                            "physicalLocation",
                            Json::obj([
                                (
                                    "artifactLocation",
                                    Json::obj([(
                                        "uri",
                                        Json::str(f.file.display().to_string()),
                                    )]),
                                ),
                                (
                                    "region",
                                    Json::obj([(
                                        "startLine",
                                        Json::UInt(u64::from(f.line.max(1))),
                                    )]),
                                ),
                            ]),
                        )])]),
                    ),
                ])
            })
            .collect(),
    );
    Json::obj([
        (
            "$schema",
            Json::str("https://json.schemastore.org/sarif-2.1.0.json"),
        ),
        ("version", Json::str("2.1.0")),
        (
            "runs",
            Json::Arr(vec![Json::obj([
                (
                    "tool",
                    Json::obj([(
                        "driver",
                        Json::obj([
                            ("name", Json::str("swiftrl-analysis")),
                            (
                                "informationUri",
                                Json::str("https://github.com/CMU-SAFARI/SwiftRL"),
                            ),
                            ("rules", rules),
                        ]),
                    )]),
                ),
                ("results", results),
            ])]),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use swiftrl_telemetry::json::parse;

    fn finding(rule: &'static str, file: &str, line: u32, msg: &str) -> Finding {
        Finding {
            file: PathBuf::from(file),
            line,
            rule,
            message: msg.to_string(),
        }
    }

    #[test]
    fn findings_json_round_trips_through_the_shared_parser() {
        let f1 = finding("K001", "crates/core/src/kernels.rs", 4, "host float");
        let f2 = finding("K005", "crates/core/src/kernels.rs", 16, "thread in kernel");
        let doc = findings_json(93, &[f1, f2]);
        let text = doc.render();
        let back = parse(&text).expect("round trip");
        assert_eq!(back.get("schema").and_then(Json::as_str), Some("swiftrl-findings-v2"));
        assert_eq!(back.get("files_scanned").and_then(Json::as_u64), Some(93));
        assert!(back.get("baselined").is_none());
        let arr = back.get("findings").and_then(Json::as_array).unwrap();
        assert_eq!(arr.len(), 2);
        assert_eq!(arr[1].get("rule").and_then(Json::as_str), Some("K005"));
        assert_eq!(arr[1].get("line").and_then(Json::as_u64), Some(16));
        assert!(arr[1].get("level").is_none());
    }

    #[test]
    fn sarif_document_has_tool_rules_and_results() {
        let f = finding("K005", "crates/core/src/kernels.rs", 9, "thread in kernel");
        let doc = sarif_json(&[f]);
        let text = doc.render();
        let back = parse(&text).expect("round trip");
        assert_eq!(back.get("version").and_then(Json::as_str), Some("2.1.0"));
        let runs = back.get("runs").and_then(Json::as_array).unwrap();
        let driver = runs[0].get("tool").unwrap().get("driver").unwrap();
        assert_eq!(driver.get("name").and_then(Json::as_str), Some("swiftrl-analysis"));
        let rules = driver.get("rules").and_then(Json::as_array).unwrap();
        assert_eq!(rules.len(), RULES.len());
        let results = runs[0].get("results").and_then(Json::as_array).unwrap();
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].get("ruleId").and_then(Json::as_str), Some("K005"));
        assert_eq!(results[0].get("level").and_then(Json::as_str), Some("error"));
        let line = results[0]
            .get("locations")
            .and_then(Json::as_array)
            .and_then(|l| l[0].get("physicalLocation"))
            .and_then(|p| p.get("region"))
            .and_then(|r| r.get("startLine"))
            .and_then(Json::as_u64);
        assert_eq!(line, Some(9));
    }
}
