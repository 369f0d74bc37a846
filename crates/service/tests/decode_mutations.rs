//! Seeded mutations of real request lines against the one-pass decoder:
//! `serde_json::from_str::<Request>` must accept exactly what the value
//! model accepts, fail with the value model's error text, and round-trip
//! whatever it accepts.

use bisched_model::InstanceData;
use bisched_service::{Request, Response, ServeOptions, Service};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::{BufRead, BufReader, Write};

/// Bytes the insertion mutation picks from: every JSON structural byte,
/// the escape lead, and the starts of numbers.
const INSERTED: &[u8] = b"[]{}\",:\\-0";

/// Mutated lines per run; each carries one to three mutations.
const LINES: usize = 2_400;

/// Every smoke instance as a solve request, plus one line shaped like
/// each perfbench workload's requests.
fn seed_lines() -> Vec<String> {
    let smoke = include_str!("../testdata/smoke.jsonl");
    let mut lines: Vec<String> = smoke
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .enumerate()
        .map(|(k, l)| {
            let data: InstanceData = serde_json::from_str(l).expect("smoke line parses");
            let mut req = Request::solve(data);
            req.id = Some(k as u64);
            serde_json::to_string(&req).unwrap()
        })
        .collect();
    // hit-unit: a relabeled unit-time `Q` instance.
    lines.push(
        r#"{"verb":"solve","id":1000017,"instance":{"env":"Q","speeds":[1,3,2],"processing":[1,1,1,1,1,1],"jobs":6,"edges":[[4,1],[0,5],[2,3],[1,0]]}}"#
            .into(),
    );
    // miss-auto: a fresh `R` instance under Auto.
    lines.push(
        r#"{"verb":"solve","id":3,"instance":{"env":"R","times":[[12,7,3],[4,9,15]],"jobs":3,"edges":[[0,2]]}}"#
            .into(),
    );
    // race-exact: a `P` instance raced by CP and branch and bound.
    lines.push(
        r#"{"verb":"solve","id":31,"instance":{"env":"P","machines":3,"processing":[5,8,2,9,4],"jobs":5,"edges":[[0,1],[2,3]]},"portfolio":["cp","branch-and-bound"]}"#
            .into(),
    );
    lines
}

fn mutate(line: &mut Vec<u8>, rng: &mut StdRng) {
    let at = rng.gen_range(0..=line.len());
    match rng.gen_range(0..3u8) {
        0 if at < line.len() => line[at] ^= rng.gen_range(1..=255u8),
        1 if at < line.len() => {
            line.remove(at);
        }
        _ => line.insert(at, INSERTED[rng.gen_range(0..INSERTED.len())]),
    }
}

#[test]
fn mutated_requests_decode_like_the_value_model() {
    let seeds = seed_lines();
    let mut rng = StdRng::seed_from_u64(0x6465_636f_6465);
    let (mut accepted, mut rejected) = (0, 0);
    for k in 0..LINES {
        let mut bytes = seeds[k % seeds.len()].clone().into_bytes();
        for _ in 0..rng.gen_range(1..=3usize) {
            mutate(&mut bytes, &mut rng);
        }
        // The daemon decodes every line through a lossy UTF-8 view.
        let line = String::from_utf8_lossy(&bytes);
        let decoded = serde_json::from_str::<Request>(&line);
        match serde_json::parse_value(&line) {
            Err(syntax) => {
                let typed = decoded
                    .as_ref()
                    .expect_err("decoded a line the value model rejects");
                assert_eq!(typed.to_string(), syntax.to_string(), "line {line:?}");
            }
            Ok(value) => {
                let modelled = serde_json::from_value::<Request>(value);
                assert_eq!(
                    decoded.as_ref().map(|r| format!("{r:?}")),
                    modelled.as_ref().map(|r| format!("{r:?}")),
                    "line {line:?}"
                );
            }
        }
        match decoded {
            Ok(req) => {
                accepted += 1;
                let text = serde_json::to_string(&req).unwrap();
                let back: Request = serde_json::from_str(&text).expect("re-encoded line decodes");
                assert_eq!(format!("{back:?}"), format!("{req:?}"), "line {line:?}");
            }
            Err(_) => rejected += 1,
        }
    }
    // Both outcomes must be well represented, or the mutations test
    // only one side of the decoder.
    assert!(
        accepted >= LINES / 20,
        "only {accepted} mutated lines decoded"
    );
    assert!(
        rejected >= LINES / 2,
        "only {rejected} mutated lines failed"
    );
}

#[test]
fn unknown_fields_nulls_and_a_repeated_id_are_answered_like_the_plain_request() {
    let service = Service::start(ServeOptions {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        ..ServeOptions::default()
    })
    .expect("start service");
    let mut raw = std::net::TcpStream::connect(service.local_addr()).expect("connect");
    let mut lines = BufReader::new(raw.try_clone().expect("clone"));
    let mut ask = |line: &str| -> Response {
        raw.write_all(line.as_bytes()).expect("write");
        let mut answer = String::new();
        lines.read_line(&mut answer).expect("answer");
        serde_json::from_str(&answer).expect("answer decodes")
    };
    let instance =
        r#"{"env":"Q","speeds":[3,1],"processing":[5,4,3,2],"jobs":4,"edges":[[0,1],[2,3]]}"#;
    let plain = ask(&[r#"{"verb":"solve","id":1,"instance":"#, instance, "}\n"].concat());
    // An unknown field nesting escapes and a `null`, a `null` optional
    // field, and `id` twice: the last one counts.
    let quirky = ask(&[
        r#"{"id":7,"verb":"solve","x-note":{"a\"b":["c\\d\u00e9\n",null,{}]},"#,
        r#""eps":null,"instance":"#,
        instance,
        r#","id":8}"#,
        "\n",
    ]
    .concat());
    assert_eq!(plain.status, "ok", "{:?}", plain.error);
    assert_eq!(quirky.status, "ok", "{:?}", quirky.error);
    assert_eq!(quirky.id, Some(8));
    assert_eq!(
        (quirky.makespan_num, quirky.makespan_den),
        (plain.makespan_num, plain.makespan_den)
    );
    service.shutdown();
    service.join();
}
