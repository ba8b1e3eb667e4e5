//! Frozen decode outcomes: the JSON reader must decode every input in
//! `tests/golden/json/decode_corpus.txt` to the value it decoded to when
//! the file was recorded, bit for bit, or fail where it failed.
//!
//! The file holds one case a line, `type<TAB>input<TAB>outcome`. The
//! input escapes `\`, newline, tab and CR as `\\`, `\n`, `\t` and `\r`;
//! the outcome is `Ok ` and the value's `Debug` text (shortest
//! round-trip floats, so equal text is equal bits), or `Err`. The
//! outcomes were recorded from the decoder the pull reader replaced,
//! which parsed a `Value` tree and rebuilt types from it.
//!
//! [`cases`] generates the inputs: odd whitespace, trailing data,
//! missing, duplicate, unknown and wrong-typed keys, integer edges,
//! escapes and surrogates, over each wire and persisted type. The test
//! checks that the file lists exactly those inputs, then that each one
//! decodes as recorded, except the cases in [`INTENDED`], which changed
//! on purpose.

use std::collections::BTreeMap;
use std::path::PathBuf;

use dlrm_perf_model::core::{CorpusIngestState, GraphMutation, Scenario};
use dlrm_perf_model::serve::{Objective, Op, OptimizeQuery, PredictQuery, RecommendQuery, Request};
use dlrm_perf_model::trace::ingest::{FileReject, FileReport, FileStatus, SkipCounts};
use dlrm_perf_model::trace::{EventCat, Trace, TraceEvent};
use serde_json::Value;

/// Cases whose outcome changed on purpose since the file was recorded,
/// as `(type, input, outcome now)`: `Scenario::strategy` is
/// `#[serde(default, skip_serializing_if = …)]`, which the old derive
/// read as `#[serde(skip)]`, so the key was ignored on read.
const INTENDED: &[(&str, &str, &str)] = &[
    (
        "Scenario",
        r#"{"label":"x","device":0,"mutations":[],"strategy":"dp"}"#,
        r#"Ok Scenario { label: "x", device: 0, mutations: [], strategy: Some("dp") }"#,
    ),
    (
        "Scenario",
        r#"{"strategy":"hybrid","label":"x","device":0,"mutations":[]}"#,
        r#"Ok Scenario { label: "x", device: 0, mutations: [], strategy: Some("hybrid") }"#,
    ),
    (
        "Scenario",
        r#"{"label":"x","device":0,"mutations":[],"strategy":"dp","strategy":"mp"}"#,
        r#"Ok Scenario { label: "x", device: 0, mutations: [], strategy: Some("dp") }"#,
    ),
    (
        "Scenario",
        r#"{"label":"x","device":0,"mutations":[],"strategy":7}"#,
        "Err",
    ),
];

/// Prefix marking a generated string as raw JSON text to splice in.
const RAW: &str = "\u{1}raw:";

fn raw(text: &str) -> Value {
    Value::Str(format!("{RAW}{text}"))
}

/// Writes `v` with `ws` around every token, splicing [`raw`] text.
fn render(v: &Value, ws: &str, out: &mut String) {
    let text = |s: &str, out: &mut String| match s.strip_prefix(RAW) {
        Some(raw) => out.push_str(raw),
        None => out.push_str(&serde_json::to_string(&s.to_string()).unwrap()),
    };
    match v {
        Value::Str(s) => text(s, out),
        Value::Arr(items) => {
            out.push('[');
            for (i, x) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(ws);
                render(x, ws, out);
                out.push_str(ws);
            }
            out.push(']');
        }
        Value::Obj(entries) => {
            out.push('{');
            for (i, (k, x)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(ws);
                text(k, out);
                out.push_str(ws);
                out.push(':');
                out.push_str(ws);
                render(x, ws, out);
                out.push_str(ws);
            }
            out.push('}');
        }
        other => out.push_str(&serde_json::to_string(other).unwrap()),
    }
}

fn compact(v: &Value) -> String {
    let mut out = String::new();
    render(v, "", &mut out);
    out
}

/// Numbers no decoder may round differently: the integer and float
/// edges, and literals the grammar rejects.
const NUMBERS: &[&str] = &[
    "-1",
    "1.5",
    "1e300",
    "9007199254740993",
    "-0",
    "0.1",
    "5e-324",
    "1e999",
    "-1e999",
    "01",
    "1.",
    "1E+2",
    "123456789012345",
    "1234567890123456",
    "18446744073709551615",
    "18446744073709551616",
    "-9223372036854775809",
    "-",
    "+1",
    "1e",
    "1-2",
    ".5",
];

/// String literals: escapes, paired and lone surrogates, raw UTF-8 and
/// literals the grammar rejects.
const STRINGS: &[&str] = &[
    r#""A\u0041\n\"\\\/\b\f\r\t""#,
    r#""\ud83d\ude00""#,
    r#""\ud83d""#,
    r#""\ude00""#,
    r#""\ud83d\u0041""#,
    r#""\ud83dx""#,
    r#""\ud83d\ud83d\ude00""#,
    r#""a\u0000b\u001f""#,
    "\"é漢😀\u{2028}\"",
    r#""\x""#,
    r#""\uZZZZ""#,
    r#""\u00""#,
    r#""abc"#,
];

/// Documents that are not the type's object at all.
const NOT_OBJECTS: &[&str] = &[
    "", " ", "{}", "[]", "null", "0", "true", "\"\"", "{", "}", "{,}", "[{}]",
];

/// A value of the same JSON kind as `v` but different content.
fn same_kind(v: &Value) -> Value {
    match v {
        Value::Null => Value::Null,
        Value::Bool(b) => Value::Bool(!b),
        Value::Num(n) => Value::Num(n + 7.0),
        Value::Str(_) => Value::Str("dup".into()),
        Value::Arr(_) => Value::Arr(Vec::new()),
        Value::Obj(_) => v.clone(),
    }
}

fn wrong_kinds() -> Vec<Value> {
    vec![
        Value::Str("s".into()),
        Value::Num(1.0),
        Value::Bool(true),
        Value::Null,
        Value::Arr(Vec::new()),
        Value::Obj(Vec::new()),
    ]
}

/// An unknown key's value: nested containers, an escaped pair and a
/// 60-deep array.
fn unknown_value() -> Value {
    let mut deep = Value::Arr(Vec::new());
    for _ in 0..60 {
        deep = Value::Arr(vec![deep]);
    }
    Value::Obj(vec![
        (
            "a".into(),
            Value::Arr(vec![
                Value::Num(1.0),
                Value::Obj(vec![("b".into(), Value::Null)]),
            ]),
        ),
        ("c".into(), raw(r#""\ud83d\ude00""#)),
        ("deep".into(), deep),
    ])
}

type Entries = Vec<(String, Value)>;

/// Every mutation of an object-shaped document `base`.
fn object_cases(base: &Value) -> Vec<String> {
    let Value::Obj(entries) = base else {
        panic!("object base")
    };
    let doc = compact(base);
    let mut out = vec![
        doc.clone(),
        serde_json::to_string_pretty(base).unwrap(),
        {
            let mut s = String::new();
            render(base, " \t\r\n", &mut s);
            s
        },
        format!(" \n{doc}\t\r"),
        format!("{doc} x"),
        format!("{doc}{{}}"),
        format!("{doc},"),
        format!("{doc}]"),
        doc[..doc.len() - 1].to_string(),
    ];
    out.extend(NOT_OBJECTS.iter().map(|s| s.to_string()));
    let with = |f: &dyn Fn(&mut Entries)| {
        let mut e = entries.clone();
        f(&mut e);
        compact(&Value::Obj(e))
    };
    for (i, (k, v)) in entries.iter().enumerate() {
        out.push(with(&|e| {
            e.remove(i);
        }));
        out.push(with(&|e| e.push((k.clone(), same_kind(v)))));
        out.push(with(&|e| e.insert(0, (k.clone(), same_kind(v)))));
        out.push(with(&|e| {
            e.push((k.clone(), Value::Arr(vec![Value::Obj(Vec::new())])))
        }));
        out.push(with(&|e| e.push((k.clone(), raw("tru")))));
        out.push(with(&|e| {
            e[i].0 = format!("{RAW}\"\\u{:04x}{}\"", u32::from(k.as_bytes()[0]), &k[1..])
        }));
        for w in wrong_kinds() {
            out.push(with(&|e| e[i].1 = w.clone()));
        }
        let edges: &[&str] = match v {
            Value::Num(_) => NUMBERS,
            Value::Str(_) => STRINGS,
            _ => &[],
        };
        for edge in edges {
            out.push(with(&|e| e[i].1 = raw(edge)));
        }
    }
    let mid = entries.len() / 2;
    for at in [0, mid, entries.len()] {
        out.push(with(&|e| {
            e.insert(at, ("zz_unknown".into(), unknown_value()))
        }));
    }
    out.push(with(&|e| e.push(("zz_unknown".into(), raw("[1,]")))));
    out.push(with(&|e| e.push(("zz_unknown".into(), raw("{\"a\" 1}")))));
    out
}

/// Replaces the value of `key` in object `base`.
fn set(base: &Value, key: &str, v: Value) -> Value {
    let Value::Obj(entries) = base else {
        panic!("object base")
    };
    Value::Obj(
        entries
            .iter()
            .map(|(k, x)| (k.clone(), if k == key { v.clone() } else { x.clone() }))
            .collect(),
    )
}

fn trace_event() -> TraceEvent {
    TraceEvent {
        name: "cudaLaunchKernel".into(),
        cat: EventCat::Runtime,
        ts_us: 1.25,
        dur_us: 0.8,
        stream: 7,
        op_index: 3,
        correlation: 42,
        op_key: "AddMm".into(),
    }
}

fn trace() -> Trace {
    Trace {
        workload: "synth-1-0".into(),
        device: "simdev".into(),
        events: vec![
            trace_event(),
            TraceEvent {
                cat: EventCat::Kernel,
                ..trace_event()
            },
        ],
        span_us: 910.0,
    }
}

fn file_report() -> FileReport {
    FileReport {
        label: "iter-001.trace.json".into(),
        status: FileStatus::Quarantined(FileReject::Structure("truncated file".into())),
        traces: 2,
        events_accepted: 449,
        skips: SkipCounts {
            malformed: 1,
            oversized: 0,
            invalid_timing: 2,
            duplicate_correlation: 3,
            out_of_order_op: 4,
        },
        bytes_read: 54_321,
        peak_buffer_bytes: 1_024,
    }
}

fn corpus_state() -> CorpusIngestState {
    let mut samples = BTreeMap::new();
    samples.insert("gemm".to_string(), vec![46.8, 0.1]);
    samples.insert("memcpy".to_string(), Vec::new());
    CorpusIngestState {
        next: 3,
        reports: vec![file_report()],
        samples,
        unattributed_kernels: 5,
        file_digests: vec!["00000000deadbeef".into()],
    }
}

fn optimize_request() -> Request {
    Request {
        id: 9,
        op: Op::Optimize(OptimizeQuery {
            model: "dlrm-default".into(),
            batch: 512,
            devices: Some(vec!["v100".into()]),
            batches: None,
            beam_width: Some(4),
            max_depth: Some(1),
            top_k: None,
            deadline_ms: Some(250.5),
        }),
    }
}

/// Every generated case, as `(type, input)`, in file order.
fn cases() -> Vec<(&'static str, String)> {
    let mut out = Vec::new();
    let mut add = |ty: &'static str, inputs: Vec<String>| {
        out.extend(inputs.into_iter().map(|s| (ty, s)));
    };

    // The grammar itself, through the `Value` reader.
    let mut grammar: Vec<String> = NUMBERS
        .iter()
        .chain(STRINGS)
        .chain(NOT_OBJECTS)
        .map(|s| s.to_string())
        .collect();
    grammar.extend(
        [
            "[1,2",
            "[1 2]",
            "[,1]",
            "[1,]",
            "{\"a\" 1}",
            "{\"a\":1 \"b\":2}",
            "{\"a\":1,}",
            "{\"a\":1,\"a\":2}",
            "{1:2}",
            "tru",
            "nul",
            "falsey",
            "[true,false,null]",
            " \t\r\n[ \t\r\n1 \t\r\n, \t\r\n{ \t\r\n\"k\" \t\r\n: \t\r\n[] \t\r\n} \t\r\n] \t\r\n",
            "\u{b}1",
            "1\u{c}",
            "\"\u{7f}\"",
            "[1e5,-1E-5,0.0,-0.0,1e-400]",
        ]
        .map(String::from),
    );
    add("Value", grammar);

    let event = serde_json::to_value(&trace_event());
    add("TraceEvent", object_cases(&event));
    add(
        "TraceEvent",
        [
            "\"Op\"",
            "\"Kernel\"",
            "\"Nope\"",
            "{\"Op\":null}",
            "0",
            "null",
        ]
        .iter()
        .map(|c| compact(&set(&event, "cat", raw(c))))
        .collect(),
    );

    let tr = serde_json::to_value(&trace());
    add("Trace", object_cases(&tr));
    let first = tr["events"][0].clone();
    let events = |items: Vec<Value>| compact(&set(&tr, "events", Value::Arr(items)));
    let mut dup = first.clone();
    if let Value::Obj(e) = &mut dup {
        e.push(("name".into(), Value::Str("dup".into())));
    }
    let mut missing = first.clone();
    if let Value::Obj(e) = &mut missing {
        e.retain(|(k, _)| k != "op_key");
    }
    add(
        "Trace",
        vec![
            events(Vec::new()),
            events(vec![Value::Obj(Vec::new())]),
            events(vec![first.clone(), Value::Null]),
            events(vec![dup]),
            events(vec![missing]),
            events(vec![first.clone(), raw("{\"name\":tru}")]),
        ],
    );

    let report = serde_json::to_value(&file_report());
    add("FileReport", object_cases(&report));
    add(
        "FileReport",
        [
            "\"Clean\"",
            "\"Degraded\"",
            "{\"Quarantined\":\"TooLarge\"}",
            "{\"Quarantined\":{\"Io\":\"disk\"}}",
            "{\"Quarantined\":{\"Panic\":\"boom\"}}",
            "{\"Quarantined\":{\"Structure\":1}}",
            "{\"Quarantined\":\"Structure\"}",
            "{\"Quarantined\":{\"TooLarge\":null}}",
            "{\"Quarantined\":{\"Io\":\"a\",\"Io\":\"b\"}}",
            "{\"Quarantined\":\"TooLarge\",\"Clean\":null}",
            "{\"Nope\":1,\"Clean\":null}",
            "{\"Nope\":1}",
            "{\"Clean\":null}",
            "{}",
            "\"Nope\"",
            "[\"Clean\"]",
            "{\"Quarantined\":\"TooLarge\"",
        ]
        .iter()
        .map(|c| compact(&set(&report, "status", raw(c))))
        .collect(),
    );

    let state = serde_json::to_value(&corpus_state());
    add("CorpusIngestState", object_cases(&state));
    add(
        "CorpusIngestState",
        [
            "{\"gemm\":[1],\"gemm\":[2]}",
            "{\"gemm\":[1],\"memcpy\":[],\"gemm\":[2,3]}",
            "{\"g\\u0065mm\":[1],\"gemm\":[2]}",
            "{\"\\ud83d\":[1],\"\\ud83d\\ude00\":[2]}",
            "{\"gemm\":[1],\"gemm\":\"x\"}",
            "{\"gemm\":[1,\"x\"]}",
            "{\"gemm\":null}",
            "{}",
            "[]",
        ]
        .iter()
        .map(|c| compact(&set(&state, "samples", raw(c))))
        .collect(),
    );

    let request = serde_json::to_value(&optimize_request());
    add("Request", object_cases(&request));
    let predict = serde_json::to_value(&Request {
        id: 1,
        op: Op::Predict(PredictQuery {
            model: "dlrm-default".into(),
            batch: 2048,
            device: "v100".into(),
            deadline_ms: None,
        }),
    });
    add("Request", object_cases(&predict));
    let recommend = serde_json::to_value(&Request {
        id: 2,
        op: Op::Recommend(RecommendQuery {
            model: "dlrm-default".into(),
            batches: vec![512, 1024],
            devices: vec!["v100".into()],
            max_latency_ms: None,
            world_sizes: vec![2],
            strategies: None,
            topologies: Some(Vec::new()),
            objective: Objective::Throughput,
            deadline_ms: Some(10.0),
        }),
    });
    add("Request", vec![compact(&recommend)]);
    add(
        "Request",
        [
            "\"Ping\"",
            "\"Stats\"",
            "{\"Ping\":null}",
            "\"Predict\"",
            "{}",
            "{\"Optimize\":{\"model\":\"m\",\"batch\":1}}",
            "{\"Optimize\":{\"model\":\"m\",\"batch\":1,\"batch\":2,\"top_k\":null}}",
            "{\"Optimize\":{\"model\":\"m\"}}",
            "{\"Optimize\":{\"model\":\"m\",\"batch\":1},\"Ping\":null}",
            "{\"Optimize\":{\"model\":\"m\",\"batch\":\"x\"},\"Ping\":null}",
            "{\"Predict\":{\"model\":\"m\",\"batch\":1,\"device\":\"v100\",\"deadline_ms\":1e999}}",
            "{\"Recommend\":{\"model\":\"m\",\"batches\":[1],\"devices\":[],\"world_sizes\":[],\"objective\":\"Latency\"}}",
            "{\"Recommend\":{\"model\":\"m\",\"batches\":[1],\"devices\":[],\"world_sizes\":[],\"objective\":\"Nope\"}}",
            "{\"Nope\":{}}",
            "[\"Ping\"]",
        ]
        .iter()
        .map(|c| compact(&set(&request, "op", raw(c))))
        .collect(),
    );

    let scenario = Scenario {
        label: "x".into(),
        device: 0,
        mutations: Vec::new(),
        strategy: None,
    };
    let mut scenarios: Vec<String> = [
        r#"{"label":"x","device":0,"mutations":[]}"#,
        r#"{"label":"x","device":0,"mutations":[],"strategy":null}"#,
        r#"{"label":"x","device":0,"mutations":[],"strategy":"dp"}"#,
        r#"{"strategy":"hybrid","label":"x","device":0,"mutations":[]}"#,
        r#"{"label":"x","device":0,"mutations":[],"strategy":"dp","strategy":"mp"}"#,
        r#"{"label":"x","device":0,"mutations":[],"strategy":7}"#,
        r#"{"label":"x","device":0,"mutations":[{"ResizeBatch":512},"FuseEmbeddingBags",{"HoistNode":3}]}"#,
        r#"{"label":"x","device":0,"mutations":[{"ResizeBatch":512,"HoistAll":null}]}"#,
        r#"{"label":"x","device":0,"mutations":[{"ResizeBatch":"512"}]}"#,
    ]
    .map(String::from)
    .to_vec();
    scenarios.push(
        serde_json::to_string(&Scenario {
            mutations: vec![GraphMutation::ResizeBatch(64), GraphMutation::HoistAll],
            ..scenario
        })
        .unwrap(),
    );
    add("Scenario", scenarios);
    out
}

macro_rules! outcome {
    ($ty:ty, $input:expr) => {
        match serde_json::from_str::<$ty>($input) {
            Ok(v) => format!("Ok {v:?}"),
            Err(_) => "Err".to_string(),
        }
    };
}

/// Decodes `input` as the type named `ty` and renders the outcome.
fn decode(ty: &str, input: &str) -> String {
    match ty {
        "Value" => outcome!(Value, input),
        "TraceEvent" => outcome!(TraceEvent, input),
        "Trace" => outcome!(Trace, input),
        "FileReport" => outcome!(FileReport, input),
        "CorpusIngestState" => outcome!(CorpusIngestState, input),
        "Request" => outcome!(Request, input),
        "Scenario" => outcome!(Scenario, input),
        other => panic!("no decoder for `{other}`"),
    }
}

fn unescape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('\\') => out.push('\\'),
            Some('n') => out.push('\n'),
            Some('t') => out.push('\t'),
            Some('r') => out.push('\r'),
            other => panic!("bad escape `\\{other:?}` in the corpus file"),
        }
    }
    out
}

#[test]
fn decode_corpus_reproduces() {
    let path =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/json/decode_corpus.txt");
    let frozen = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing frozen corpus {}: {e}", path.display()));
    let generated = cases();
    let lines: Vec<&str> = frozen.lines().collect();
    assert_eq!(
        lines.len(),
        generated.len(),
        "the corpus file lists every generated case"
    );
    let mut changed = Vec::new();
    for (n, (line, (ty, input))) in lines.iter().zip(&generated).enumerate() {
        let mut cols = line.splitn(3, '\t');
        let (Some(file_ty), Some(file_input), Some(recorded)) =
            (cols.next(), cols.next(), cols.next())
        else {
            panic!("line {}: expected three tab-separated columns", n + 1);
        };
        assert_eq!(
            (file_ty, unescape(file_input).as_str()),
            (*ty, input.as_str()),
            "line {}",
            n + 1
        );
        let now = decode(ty, input);
        if now == recorded {
            continue;
        }
        match INTENDED.iter().find(|(t, i, _)| t == ty && i == input) {
            Some((_, _, expected)) => {
                assert_eq!(now, *expected, "line {}: intended change", n + 1);
                changed.push(n);
            }
            None => panic!(
                "line {}: {ty} {input:?} decoded to\n  {now}\nbut was recorded as\n  {recorded}",
                n + 1
            ),
        }
    }
    assert_eq!(
        changed.len(),
        INTENDED.len(),
        "every intended change is exercised: lines {changed:?}"
    );
}
