//! Self-tests of the benchmark's own code:
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.

use bisched_graph::Graph;
use bisched_model::{Instance, InstanceData};
use bisched_perfbench::check::{check, Verdict};
use bisched_perfbench::metrics::{per_layer, END_TO_END};
use bisched_perfbench::workload::{generate, ALL};

#[test]
fn a_seed_regenerates_a_byte_identical_stream() {
    for w in ALL {
        let a = generate(w, 7, 1).expect("stream generates");
        let b = generate(w, 7, 1).expect("stream generates");
        assert!(
            a.warm == b.warm && a.timed == b.timed,
            "{} differs",
            w.name()
        );
        assert_eq!(a.digest(), b.digest());
        let other = generate(w, 8, 1).expect("stream generates");
        assert_ne!(a.digest(), other.digest(), "{} ignores its seed", w.name());
    }
}

#[test]
fn metric_tables_match_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
    let json = serde_json::parse_value(&text).expect("BENCHMARK.json parses");
    let listed = |key: &str| -> Vec<(String, String)> {
        match json.as_object().and_then(|o| o.get(key)) {
            Some(serde_json::Value::Array(items)) => items
                .iter()
                .map(|m| {
                    let field = |f: &str| {
                        m.as_object()
                            .and_then(|o| o.get(f))
                            .and_then(|v| v.as_str())
                            .expect("metric has name and unit")
                            .to_string()
                    };
                    (field("name"), field("unit"))
                })
                .collect(),
            _ => panic!("BENCHMARK.json has no {key} list"),
        }
    };
    let end_to_end: Vec<(String, String)> = END_TO_END
        .iter()
        .map(|&(n, u)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(listed("end_to_end"), end_to_end);
    let layers: Vec<(String, String)> = per_layer()
        .into_iter()
        .map(|(n, u)| (n, u.to_string()))
        .collect();
    assert_eq!(listed("per_layer"), layers);
}

#[test]
fn the_gate_rejects_wrong_answers() {
    // Q speeds [1, 2] in submitted order; jobs 0-1 conflict.
    let inst = Instance::uniform(vec![1, 2], vec![2, 4, 2], Graph::from_edges(3, &[(0, 1)]))
        .expect("valid instance");
    let mut data = InstanceData::from_instance(&inst);
    data.speeds = Some(vec![1, 2]);
    let response = |assignment: &str, num: u64, den: u64| {
        format!(
            "{{\"status\":\"ok\",\"guarantee\":\"optimal\",\"makespan_num\":{num},\
             \"makespan_den\":{den},\"lower_bound_num\":8,\"lower_bound_den\":3,\
             \"assignment\":{assignment}}}\n"
        )
    };
    // Machine 1 (speed 2) takes jobs 1 and 2: load 6, time 3; machine 0: 2.
    assert!(matches!(
        check(&data, response("[0,1,1]", 3, 1).as_bytes()),
        Verdict::Valid(_)
    ));
    for (bad, num, den) in [
        ("[1,1,0]", 3, 1), // conflicting jobs share machine 1
        ("[0,1,1]", 5, 2), // served makespan disagrees with the schedule
        ("[0,1,2]", 3, 1), // machine out of range
        ("[0,1]", 3, 1),   // wrong length
    ] {
        assert!(
            matches!(
                check(&data, response(bad, num, den).as_bytes()),
                Verdict::Invalid(_)
            ),
            "{bad} with makespan {num}/{den} must be rejected"
        );
    }
    assert!(matches!(
        check(&data, b"{\"status\":\"busy\"}\n"),
        Verdict::Busy
    ));
}
