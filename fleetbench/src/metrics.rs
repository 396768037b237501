//! The metric tables `BENCHMARK.json` declares, and the result line
//! that reports them.

/// End-to-end metrics, printed by an untraced run (`--trace 0`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("homes_per_s", "homes/s"),
    ("cpu_ms_per_home", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("homes_ok_share", "ratio"),
    ("deviant_recall", "ratio"),
    ("benign_pass_share", "ratio"),
    ("detect_s_mean", "sim_s"),
    ("ota_safe_share", "ratio"),
    ("rogue_denied_share", "ratio"),
];

/// Per-layer metrics, printed by a traced run (`--trace 1`). Per-home
/// values are means over the homes named in `README.md`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("fleet.homes", "count"),
    ("fleet.build_us", "us"),
    ("fleet.step_us", "us"),
    ("fleet.step_us_p50", "us"),
    ("fleet.step_us_p99", "us"),
    ("fleet.drain_us", "us"),
    ("fleet.probe_us", "us"),
    ("fleet.finish_us", "us"),
    ("fleet.region_consume_us", "us"),
    ("fleet.aggregate_ms", "ms"),
    ("fleet.to_json_ms", "ms"),
    ("simnet.events", "count"),
    ("simnet.ns_per_event", "ns"),
    ("simnet.packets", "count"),
    ("simnet.wire_bytes", "bytes"),
    ("simnet.hop.dev_gw", "count"),
    ("simnet.hop.gw_cloud", "count"),
    ("simnet.hop.cloud_gw", "count"),
    ("simnet.hop.gw_dev", "count"),
    ("simnet.hop.attacker_gw", "count"),
    ("lwcrypto.dpi_homes", "count"),
    ("lwcrypto.tokenize_us", "us"),
    ("lwcrypto.tokens", "count"),
    ("lwcrypto.tokenize_ns_per_token", "ns"),
    ("lwcrypto.tokenize_step_share", "ratio"),
    ("core.dpi_match_us", "us"),
    ("core.xlf_off_step_us", "us"),
    ("core.xlf_share", "ratio"),
    ("core.evidence", "count"),
    ("core.evidence_shed", "count"),
    ("core.evidence_device", "count"),
    ("core.evidence_network", "count"),
    ("core.evidence_service", "count"),
    ("stream.windows", "count"),
    ("stream.windows_shed", "count"),
    ("mgmt.updates_applied", "count"),
    ("mgmt.rollbacks", "count"),
    ("mgmt.quarantines", "count"),
    ("onboard.join_us", "us"),
    ("onboard.retransmissions", "count"),
    ("onboard.denied", "count"),
    ("trace.overhead_share", "ratio"),
];

/// The final stdout line: one JSON object with exactly `correct`,
/// `attempted`, `failed` and `metrics`. `values` must name every metric
/// of `table`, in any order; a metric that is missing or not finite is
/// an error, since the line would otherwise misreport it.
pub fn result_line(
    table: &[(&str, &str)],
    values: &[(&'static str, f64)],
    correct: bool,
    attempted: u64,
    failed: u64,
) -> Result<String, String> {
    let mut fields = Vec::with_capacity(table.len());
    for &(name, unit) in table {
        let value = values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite: {value}"));
        }
        fields.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        fields.join(", ")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// Whether `name` is a valid metric or workload name: starts with a
    /// letter or digit, at most 64 of `[A-Za-z0-9_.-]`.
    fn valid_name(name: &str) -> bool {
        let mut chars = name.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    /// Whether `unit` is a valid unit: at most 16 of `[A-Za-z0-9_/%.-]`.
    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    fn benchmark_json() -> String {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark")
    }

    #[test]
    fn names_and_units_are_valid_and_unique() {
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        let mut seen = BTreeSet::new();
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(name), "bad name {name}");
            assert!(valid_unit(unit), "bad unit {unit} of {name}");
            assert!(seen.insert(name), "duplicate name {name}");
        }
        for w in crate::workloads::Workload::ALL {
            assert!(valid_name(w.name()));
        }
    }

    #[test]
    fn name_rules_reject_what_the_contract_rejects() {
        assert!(valid_name("simnet.hop.dev_gw"));
        assert!(valid_name("9lives"));
        assert!(!valid_name(""));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("has space"));
        assert!(!valid_name("slash/name"));
        assert!(!valid_name(&"x".repeat(65)));
        assert!(valid_unit("homes/s") && valid_unit("%") && valid_unit("sim_s"));
        assert!(!valid_unit("") && !valid_unit("µs") && !valid_unit(&"u".repeat(17)));
    }

    #[test]
    fn benchmark_json_declares_exactly_these_tables() {
        let json = benchmark_json();
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for w in crate::workloads::Workload::ALL {
            let entry = format!("\"name\": \"{}\", \"why\"", w.name());
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let declared = json.matches("\"name\": ").count();
        assert_eq!(
            declared,
            END_TO_END.len() + PER_LAYER.len() + crate::workloads::Workload::ALL.len()
        );
    }

    #[test]
    fn result_line_names_every_metric_once() {
        let table = [("a_ms", "ms"), ("b", "count")];
        let line =
            result_line(&table, &[("b", 3.0), ("a_ms", 1.25)], true, 10, 0).expect("complete");
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"a_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \
             \"b\": {\"value\": 3, \"unit\": \"count\"}}}"
        );
        assert!(result_line(&table, &[("b", 3.0)], true, 1, 0).is_err());
        assert!(result_line(&table, &[("a_ms", f64::NAN), ("b", 1.0)], true, 1, 0).is_err());
    }
}
