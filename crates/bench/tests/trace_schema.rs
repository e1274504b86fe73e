//! Validates the Chrome `trace_event` JSON emitted for a traced solve
//! against the subset of the format that Perfetto / `chrome://tracing`
//! require: a `traceEvents` array of `"X"` complete events (with
//! `ts`/`dur`/`name`/`cat`), `"M"` `thread_name` metadata, and `"C"`
//! counter events, all under `pid` 1. The same checks run in CI against
//! the file an `RR_TRACE` run writes (`tools/check_trace.py`); this test
//! guards the schema at the unit level with the in-tree parser.

use rr_bench::json::{from_str, Value};
use rr_bench::trace::report_to_json;
use rr_core::{Session, SolverConfig};
use rr_mp::Int;
use rr_obs::WORKER_TRACK_BASE;
use rr_poly::Poly;

fn traced_chrome_json() -> Value {
    let p = Poly::from_roots(&(1..=16).map(Int::from).collect::<Vec<_>>());
    let session = Session::new(SolverConfig::parallel(27, 4));
    let (_, report) = session.solve_traced(&p).expect("real-rooted workload");
    from_str(&report.to_chrome_json()).expect("exporter emits valid JSON")
}

#[test]
fn chrome_trace_matches_the_trace_event_schema() {
    let doc = traced_chrome_json();
    assert_eq!(doc["displayTimeUnit"].as_str(), Some("ms"));
    let events = doc["traceEvents"].as_array().expect("traceEvents array");
    assert!(!events.is_empty());

    let mut x_events = 0usize;
    let mut m_events = 0usize;
    let mut c_events = 0usize;
    for ev in events {
        assert_eq!(ev["pid"].as_u64(), Some(1), "all events use pid 1");
        ev["tid"].as_u64().expect("tid is a number");
        match ev["ph"].as_str().expect("ph is a string") {
            "X" => {
                x_events += 1;
                assert!(ev["ts"].as_f64().is_some(), "X event has ts");
                assert!(ev["dur"].as_f64().is_some(), "X event has dur");
                assert!(ev["name"].as_str().is_some(), "X event has name");
                let cat = ev["cat"].as_str().expect("X event has cat");
                assert!(matches!(cat, "phase" | "stage" | "task"), "cat {cat}");
            }
            "M" => {
                m_events += 1;
                assert_eq!(ev["name"].as_str(), Some("thread_name"));
                assert!(ev["args"]["name"].as_str().is_some());
            }
            "C" => {
                c_events += 1;
                assert!(ev["name"].as_str().is_some());
                assert!(ev["ts"].as_f64().is_some());
                assert!(ev["args"]["value"].as_f64().is_some());
            }
            other => panic!("unexpected event phase {other:?}"),
        }
    }
    assert!(x_events > 0, "no duration events");
    assert!(m_events > 0, "no thread_name metadata");
    assert!(c_events > 0, "no queue-depth counter samples");
}

#[test]
fn task_events_carry_worker_attribution() {
    let doc = traced_chrome_json();
    let events = doc["traceEvents"].as_array().unwrap();
    let tasks: Vec<&Value> = events
        .iter()
        .filter(|ev| ev["cat"].as_str() == Some("task"))
        .collect();
    assert!(!tasks.is_empty(), "traced parallel solve has task events");
    for ev in &tasks {
        // Task spans live on synthetic per-worker tracks and name the
        // executing worker and the task-graph id in their args.
        let tid = ev["tid"].as_u64().unwrap();
        assert!(tid >= u64::from(WORKER_TRACK_BASE), "task on worker track");
        let worker = ev["args"]["worker"].as_u64().expect("worker arg");
        assert_eq!(tid, u64::from(WORKER_TRACK_BASE) + worker);
        ev["args"]["id"].as_u64().expect("task id arg");
    }
    // Every worker track is named for the trace viewer.
    let named: Vec<u64> = events
        .iter()
        .filter(|ev| ev["ph"].as_str() == Some("M"))
        .map(|ev| ev["tid"].as_u64().unwrap())
        .collect();
    for ev in &tasks {
        assert!(named.contains(&ev["tid"].as_u64().unwrap()));
    }
}

#[test]
fn phase_events_nest_inside_the_solve_stage() {
    let doc = traced_chrome_json();
    let events = doc["traceEvents"].as_array().unwrap();
    let solve = events
        .iter()
        .find(|ev| ev["cat"].as_str() == Some("stage") && ev["name"].as_str() == Some("solve"))
        .expect("solve stage span");
    let (s0, s1) = (
        solve["ts"].as_f64().unwrap(),
        solve["ts"].as_f64().unwrap() + solve["dur"].as_f64().unwrap(),
    );
    assert_eq!(solve["args"]["n"].as_u64(), Some(16));
    let tid = solve["tid"].as_u64().unwrap();
    for ev in events.iter().filter(|ev| {
        ev["cat"].as_str() == Some("phase") && ev["tid"].as_u64() == Some(tid)
    }) {
        let t0 = ev["ts"].as_f64().unwrap();
        let t1 = t0 + ev["dur"].as_f64().unwrap();
        assert!(t0 >= s0 && t1 <= s1, "phase span escapes the solve stage");
    }
}

/// The compact report carries the solve's execution counters by label.
/// A sequential solve on a fresh thread starts with a cold scratch
/// arena, so its allocations are always there.
#[test]
fn report_json_carries_exec_counters_of_a_cold_solve() {
    let report = std::thread::spawn(|| {
        let p = Poly::from_roots(&(1..=16).map(Int::from).collect::<Vec<_>>());
        let session = Session::new(SolverConfig::sequential(27));
        session.solve_traced(&p).expect("real-rooted workload").1
    })
    .join()
    .unwrap();
    let v = from_str(&report_to_json(&report).to_pretty()).expect("valid JSON");
    let exec = &v["exec"];
    assert!(exec["allocs"].as_u64().unwrap() > 0, "cold solve allocated");
    assert!(exec["alloc_bytes"].as_u64().unwrap() > 0);
    let Value::Object(phases) = &exec["phases"] else {
        panic!("per-phase allocations")
    };
    let per_phase: u64 = phases.values().map(|cell| cell["allocs"].as_u64().unwrap()).sum();
    assert_eq!(per_phase, exec["allocs"].as_u64().unwrap());
    // The paper profile runs no Kronecker, Newton or fork-join kernel,
    // and zero counters are left out.
    assert!(exec["kronecker_muls"].as_u64().is_none());
}
