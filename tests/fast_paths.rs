//! The fast paths of the JSON stand-in and the trace scanner, checked
//! against the slow paths they shortcut:
//!
//! 1. the trace scanner takes runs of event bytes at a time, so how a
//!    reader splits a file into reads must not change anything it
//!    reports: traces, skips, status or buffer high-water mark;
//! 2. the per-event byte cap still cuts exactly at `max_event_bytes`;
//! 3. an event in exactly the writer's form is parsed in place, and its
//!    bytes are kept: it takes that path exactly when the form's rule
//!    holds, with the general parser's result and the writer's bytes;
//!    every other form takes the general parser; and every event the
//!    engine writes meets that rule;
//! 4. the parser builds short plain integers directly, bitwise equal to
//!    `str::parse::<f64>`;
//! 5. escaped UTF-16 surrogate pairs decode to one character;
//! 6. the memo key's one precomputed hash, which stands in for hashing
//!    the whole key per lookup, spreads real workloads' kernels over every
//!    cache shard.

use std::collections::BTreeSet;
use std::io::Read;

use dlperf_faults::{FaultInjector, FaultPlan, TraceFaultPlan};
use dlperf_gpusim::DeviceSpec;
use dlperf_graph::lower;
use dlperf_kernels::MemoKey;
use dlperf_models::zoo;
use dlperf_runtime::fnv1a64;
use dlperf_trace::engine::ExecutionEngine;
use dlperf_trace::ingest::{
    ingest_reader, ingest_str, parse_canonical_event, FileIngest, FileStatus, IngestLimits,
};
use dlperf_trace::{EventCat, Trace, TraceEvent};
use proptest::prelude::*;

/// A reader that hands out `data` in reads of the given lengths, cycling.
struct Chunked<'a> {
    data: &'a [u8],
    lens: &'a [usize],
    next: usize,
}

impl Read for Chunked<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let want = self.lens[self.next % self.lens.len()];
        self.next += 1;
        let n = want.min(buf.len()).min(self.data.len());
        buf[..n].copy_from_slice(&self.data[..n]);
        self.data = &self.data[n..];
        Ok(n)
    }
}

/// Everything a `FileIngest` reports, in comparable form. The bytes it
/// writes for each trace are `Trace::to_json`'s.
fn outcome(ingest: &FileIngest) -> (Vec<String>, String) {
    let traces: Vec<String> = ingest.traces.iter().map(Trace::to_json).collect();
    for (i, json) in traces.iter().enumerate() {
        let mut written = String::new();
        ingest.write_trace_json(i, &mut written);
        assert_eq!(&written, json, "trace {i}");
    }
    (traces, format!("{:?}", ingest.report))
}

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// A trace whose strings carry escapes (quotes, backslashes, control
/// characters, non-ASCII) so reads split escape sequences and runs.
fn trace(file: u64, n_events: usize) -> Trace {
    let events = (0..n_events)
        .map(|i| {
            let (cat, name) = match i % 3 {
                0 => (EventCat::Op, format!("op \"{i}\" \\ é\n")),
                1 => (EventCat::Runtime, "cudaLaunchKernel".to_string()),
                _ => (
                    EventCat::Kernel,
                    format!("gemm_kernel_{}", "x".repeat(i % 40)),
                ),
            };
            TraceEvent {
                name,
                cat,
                ts_us: i as f64 * 2.0,
                dur_us: 0.5 + i as f64 / 7.0,
                stream: 7,
                op_index: i / 3,
                correlation: if i % 3 == 0 {
                    0
                } else {
                    (file << 32) | (i / 3 + 1) as u64
                },
                op_key: if i % 3 == 0 {
                    "AddMm".into()
                } else {
                    String::new()
                },
            }
        })
        .collect();
    Trace {
        workload: format!("synth-{file}"),
        device: "simdev".into(),
        events,
        span_us: n_events as f64 * 2.0 + 10.0,
    }
}

/// Clean single-trace and array files, plus copies mangled by every
/// trace fault kind.
fn corpus() -> Vec<Vec<u8>> {
    let mut files = Vec::new();
    for file in 0..12u64 {
        let doc = if file % 3 == 0 {
            format!(
                "[{},\n {}]",
                trace(file, 20).to_json(),
                trace(file + 100, 9).to_json()
            )
        } else {
            trace(file, 30).to_json()
        };
        files.push(doc.clone().into_bytes());
        let plan = TraceFaultPlan {
            truncate_prob: 0.2,
            bitflip_prob: 0.2,
            duplicate_prob: 0.2,
            reorder_prob: 0.2,
            garbage_prob: 0.2,
        };
        let injector = FaultInjector::new(FaultPlan::healthy(file).with_trace_faults(plan));
        let mut bytes = doc.into_bytes();
        injector.mangle_trace_bytes(0xC0_FFEE, file, &mut bytes);
        files.push(bytes);
    }
    // Hostile framing the scanner must handle identically at any split.
    files.push(br#"{"workload":"w","device":"d","events":[{"a":[[[[1]]]]},"x\u0000y",1,,{"name":"\"}]"}],"span_us":1}"#.to_vec());
    files.push(b"{\"workload\":\"w\",\"events\":[{\"name\":\"a\x00b\"}, {\x00}],\"device\":\"d\",\"span_us\":1}".to_vec());
    // A NUL early in a long element poisons it: nothing after it is
    // buffered.
    let long = format!(
        r#"{{"workload":"w","device":"d","events":[{{"a":1}},{{ {}"{}"}}],"span_us":1}}"#,
        '\0',
        "x".repeat(300)
    );
    files.push(long.into_bytes());
    files
}

/// Digest of every corpus file's outcome under the limits below,
/// captured from the byte-at-a-time scanner the run path replaced: the
/// independent oracle for the reads compared here.
const BYTEWISE_DIGEST: &str = "38da38ea4aa81b0b";

#[test]
fn read_sizes_never_change_a_file_ingest() {
    // Tight caps so some events are oversized and some elements are
    // poisoned by depth.
    let limits = IngestLimits {
        max_event_bytes: 160,
        max_json_depth: 4,
        skip_budget: 1_000,
        ..IngestLimits::default()
    };
    let mut seed = 0x5EED_u64;
    let random: Vec<usize> = (0..64)
        .map(|_| 1 + (xorshift(&mut seed) % 300) as usize)
        .collect();
    let splits: [&[usize]; 5] = [&[1], &[2], &[7], &[8192], &random];
    let files = corpus();
    let mut statuses = Vec::new();
    let mut all = String::new();
    for (k, bytes) in files.iter().enumerate() {
        let reference = outcome(&ingest_reader(
            Chunked {
                data: bytes,
                lens: &[1],
                next: 0,
            },
            "f",
            &limits,
        ));
        all.push_str(&format!("{reference:?}\n"));
        for lens in splits {
            let got = ingest_reader(
                Chunked {
                    data: bytes,
                    lens,
                    next: 0,
                },
                "f",
                &limits,
            );
            assert_eq!(
                outcome(&got),
                reference,
                "file {k}, read lengths {:?}…",
                &lens[..1]
            );
            if lens.len() == 1 && lens[0] == 8192 {
                statuses.push(got.report.status.clone());
            }
        }
    }
    assert_eq!(format!("{:016x}", fnv1a64(all.as_bytes())), BYTEWISE_DIGEST);
    // The corpus reaches every outcome class, so every path was compared.
    assert!(statuses.contains(&FileStatus::Clean));
    assert!(statuses.contains(&FileStatus::Degraded));
    assert!(statuses
        .iter()
        .any(|s| matches!(s, FileStatus::Quarantined(_))));
}

/// One event padded so that its JSON is exactly `len` bytes; the padding
/// is the last string, so the cap falls inside a string run.
fn event_of_len(len: usize, correlation: u64) -> TraceEvent {
    let mut ev = TraceEvent {
        name: "gemm_kernel".into(),
        cat: EventCat::Kernel,
        ts_us: 1.0,
        dur_us: 2.0,
        stream: 7,
        op_index: 0,
        correlation,
        op_key: String::new(),
    };
    let base = serde_json::to_string(&ev).unwrap().len();
    ev.op_key = "k".repeat(len - base);
    assert_eq!(serde_json::to_string(&ev).unwrap().len(), len);
    ev
}

fn doc_of(events: Vec<TraceEvent>) -> String {
    Trace {
        workload: "w".into(),
        device: "d".into(),
        events,
        span_us: 10.0,
    }
    .to_json()
}

#[test]
fn event_cap_cuts_exactly_at_max_event_bytes() {
    let cap = 200;
    let limits = IngestLimits {
        max_event_bytes: cap,
        ..IngestLimits::default()
    };
    let at_cap = event_of_len(cap, 1);
    // One byte over, and far over with the cap inside the padding run.
    let doc = doc_of(vec![
        at_cap.clone(),
        event_of_len(cap + 1, 2),
        event_of_len(cap + 90, 3),
    ]);
    // Buffering the at-cap event whole is the high-water mark; the
    // oversized ones are cut at the cap and never raise it.
    let alone = ingest_str(&doc_of(vec![at_cap.clone()]), "f", &limits);
    assert_eq!(alone.report.status, FileStatus::Clean);
    for lens in [&[1usize][..], &[7], &[64], &[8192]] {
        let ingest = ingest_reader(
            Chunked {
                data: doc.as_bytes(),
                lens,
                next: 0,
            },
            "f",
            &limits,
        );
        assert_eq!(
            ingest.report.status,
            FileStatus::Degraded,
            "reads of {lens:?}"
        );
        assert_eq!(ingest.report.skips.oversized, 2);
        assert_eq!(ingest.report.skips.total(), 2);
        assert_eq!(ingest.traces[0].events, vec![at_cap.clone()]);
        assert_eq!(
            ingest.report.peak_buffer_bytes, alone.report.peak_buffer_bytes,
            "reads of {lens:?}"
        );
    }
}

/// Characters event names draw from: the first [`PLAIN_CHARS`] the
/// writer copies as they are (plain ASCII, a slash, DEL and non-ASCII),
/// then ones it escapes.
const NAME_CHARS: [char; 12] = [
    'a', 'K', '_', ' ', '/', '\u{7f}', 'é', '😀', '"', '\\', '\n', '\u{1}',
];
const PLAIN_CHARS: usize = 8;

/// Names of plain characters half the time, so that whole events often
/// meet the canonical rule.
fn name() -> impl Strategy<Value = String> {
    let of = |chars: usize| {
        proptest::collection::vec(0..chars, 0..8)
            .prop_map(|picks| picks.into_iter().map(|i| NAME_CHARS[i]).collect())
    };
    prop_oneof![of(PLAIN_CHARS), of(NAME_CHARS.len())]
}

/// Timings the writer prints in every shape it has.
const SPECIAL_TIMINGS: [f64; 12] = [
    0.0,
    -0.0,
    1e-7,
    1e20,
    0.1,
    -2.5,
    123_456.789,
    999_999_999_999_999.0,
    1e15,
    f64::MIN_POSITIVE,
    5e-324,
    1e-310,
];

/// Timings across magnitudes: the special values, integers near 2^53 and
/// 10^15, and decimals of 1 to 17 significant digits from 1e-12 to 1e21.
fn timing() -> impl Strategy<Value = f64> {
    prop_oneof![
        (0..SPECIAL_TIMINGS.len()).prop_map(|i| SPECIAL_TIMINGS[i]),
        (-3i64..4).prop_map(|d| ((1i64 << 53) + d) as f64),
        (-3i64..4).prop_map(|d| (1_000_000_000_000_000 + d) as f64),
        (1u32..18, 0u64..u64::MAX, -12i32..22, 0u8..2).prop_map(|(digits, raw, exp, neg)| {
            let sign = if neg == 1 { "-" } else { "" };
            let mantissa = raw % 10u64.pow(digits);
            format!("{sign}{mantissa}e{exp}").parse::<f64>().unwrap()
        }),
    ]
}

/// Counts near the 15-digit edge and near 2^53, and small ones.
fn count() -> impl Strategy<Value = u64> {
    prop_oneof![
        0u64..1000,
        (-3i64..4).prop_map(|d| (1_000_000_000_000_000 + d) as u64),
        (-3i64..4).prop_map(|d| ((1i64 << 53) + d) as u64),
    ]
}

fn event() -> impl Strategy<Value = TraceEvent> {
    (
        name(),
        0u8..3,
        (timing(), timing()),
        (count(), count(), count()),
        name(),
    )
        .prop_map(
            |(name, cat, (ts_us, dur_us), (stream, op_index, correlation), op_key)| TraceEvent {
                name,
                cat: [EventCat::Op, EventCat::Runtime, EventCat::Kernel][usize::from(cat)],
                ts_us,
                dur_us,
                stream: stream as usize,
                op_index: op_index as usize,
                correlation,
                op_key,
            },
        )
}

/// The canonical form's rule for one written string.
fn plain_string(text: &str) -> bool {
    !text.bytes().any(|b| b == b'\\' || b < 0x20)
}

/// The rule for one written count: 1 to 15 digits, no leading zero.
fn short_digits(text: &str) -> bool {
    (1..=15).contains(&text.len())
        && text.bytes().all(|b| b.is_ascii_digit())
        && (text.len() == 1 || !text.starts_with('0'))
}

/// The writer's bytes of a value.
macro_rules! written {
    ($value:expr) => {
        serde_json::to_string($value).unwrap()
    };
}

/// The rule for the writer's bytes of an event: strings without escapes
/// or control bytes, and counts below 10^15. Every finite timing the
/// writer prints passes.
fn rule_holds(ev: &TraceEvent) -> bool {
    plain_string(&written!(&ev.name))
        && plain_string(&written!(&ev.op_key))
        && [ev.stream as u64, ev.op_index as u64, ev.correlation]
            .iter()
            .all(|n| short_digits(&written!(n)))
}

/// The event's fields as the writer prints them, in field order.
fn fields(ev: &TraceEvent) -> Vec<(&'static str, String)> {
    vec![
        ("name", written!(&ev.name)),
        ("cat", written!(&ev.cat)),
        ("ts_us", written!(&ev.ts_us)),
        ("dur_us", written!(&ev.dur_us)),
        ("stream", written!(&ev.stream)),
        ("op_index", written!(&ev.op_index)),
        ("correlation", written!(&ev.correlation)),
        ("op_key", written!(&ev.op_key)),
    ]
}

fn object(fields: &[(&str, String)], colon: &str) -> String {
    let entries: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("\"{k}\"{colon}{v}"))
        .collect();
    format!("{{{}}}", entries.join(","))
}

/// Forms of the same event the writer never prints: whitespace,
/// reordered keys, an exponent, a trailing zero, digits past the
/// shortest round trip, `-0`, and `\/`.
fn mangled(ev: &TraceEvent) -> Vec<String> {
    let base = fields(ev);
    let with = |key: &str, value: String| {
        let mut f = base.clone();
        f.iter_mut().find(|(k, _)| *k == key).unwrap().1 = value;
        object(&f, ":")
    };
    let mut reordered = base.clone();
    reordered.swap(0, 1);
    let ts = &base[2].1;
    let point = if ts.contains('.') { "" } else { "." };
    let name = &base[0].1;
    vec![
        object(&base, ": "),
        object(&reordered, ":"),
        with("ts_us", format!("{:e}", ev.ts_us)),
        with("ts_us", format!("{ts}{point}0")),
        // Over 17 significant digits: never a shortest round trip.
        with("ts_us", format!("{ts}{point}10000000000000000001")),
        with("dur_us", "-0".into()),
        with("name", format!("\"\\/{}", &name[1..])),
    ]
}

/// Ingests `event` as the one event of a trace and checks the scanner
/// took it as the general parser reads it, and wrote the trace's bytes.
fn ingests_as_parsed(event: &str) -> Result<(), TestCaseError> {
    let doc = format!(r#"{{"workload":"w","device":"d","events":[{event}],"span_us":1}}"#);
    let ingest = ingest_str(&doc, "e", &IngestLimits::default());
    let want = serde_json::from_str::<TraceEvent>(event)
        .ok()
        .filter(|e| e.ts_us.is_finite() && e.dur_us.is_finite() && e.dur_us >= 0.0);
    prop_assert_eq!(
        format!("{:?}", ingest.traces[0].events.first()),
        format!("{:?}", want.as_ref()),
        "event {}",
        event
    );
    let mut bytes = String::new();
    ingest.write_trace_json(0, &mut bytes);
    prop_assert_eq!(bytes, ingest.traces[0].to_json(), "event {}", event);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn writer_form_takes_the_canonical_path_exactly_when_its_rule_holds(ev in event()) {
        let bytes = written!(&ev);
        let general: TraceEvent = serde_json::from_str(&bytes).unwrap();
        let canonical = parse_canonical_event(&bytes);
        prop_assert_eq!(canonical.is_some(), rule_holds(&ev), "bytes {}", bytes);
        if let Some(parsed) = &canonical {
            prop_assert_eq!(format!("{parsed:?}"), format!("{general:?}"), "bytes {}", bytes);
            prop_assert_eq!(written!(parsed), bytes.clone());
        }
        ingests_as_parsed(&bytes)?;
        for form in mangled(&ev) {
            prop_assert!(parse_canonical_event(&form).is_none(), "form {}", form);
            ingests_as_parsed(&form)?;
        }
    }
}

/// The kept bytes pay off only when most events are in the writer's
/// form. The engine's timings are computed `f64`s of up to 17 significant
/// digits and its names need no escape, so every event of a trace it
/// writes takes the canonical path, on every zoo model.
#[test]
fn engine_traces_are_all_in_the_writers_form() {
    for name in zoo::MODEL_NAMES {
        let graph = zoo::build(name, 512).expect("zoo model builds");
        let run = ExecutionEngine::new(DeviceSpec::v100(), 7)
            .run(&graph)
            .expect("zoo model runs");
        assert!(!run.trace.events.is_empty(), "{name}: no events");
        for ev in &run.trace.events {
            let bytes = written!(ev);
            assert!(parse_canonical_event(&bytes).is_some(), "{name}: {bytes}");
        }
    }
}

/// A numeric literal assembled from parts: sign, 0–20 integer digits
/// (leading zeros allowed), optional fraction and exponent.
fn literal(
    (neg, int, frac_kind, frac, exp_kind, exp): (bool, Vec<u8>, u8, Vec<u8>, u8, Vec<u8>),
) -> String {
    let digits = |d: &[u8]| d.iter().map(|&x| char::from(b'0' + x)).collect::<String>();
    let mut s = String::new();
    if neg {
        s.push('-');
    }
    s.push_str(&digits(&int));
    if frac_kind > 0 {
        s.push('.');
        s.push_str(&digits(&frac));
    }
    match exp_kind {
        1 => s.push('e'),
        2 => s.push_str("E+"),
        3 => s.push_str("e-"),
        _ => {}
    }
    if exp_kind > 0 {
        s.push_str(&digits(&exp));
    }
    s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    #[test]
    fn parsed_numbers_equal_str_parse_bitwise(
        parts in (
            prop_oneof![Just(false), Just(false), Just(true)],
            proptest::collection::vec(0u8..10, 0..21),
            prop_oneof![Just(0u8), Just(0u8), Just(1u8)],
            proptest::collection::vec(0u8..10, 0..6),
            prop_oneof![Just(0u8), Just(0u8), Just(0u8), 1u8..4],
            proptest::collection::vec(0u8..10, 0..4),
        )
    ) {
        let lit = literal(parts);
        let parsed = serde_json::parse(&lit).ok().map(|v| v.as_f64().map(f64::to_bits));
        if lit.starts_with(|c: char| c == '-' || c.is_ascii_digit()) {
            let expected = lit.parse::<f64>().ok().map(|n| Some(n.to_bits()));
            prop_assert_eq!(parsed, expected, "literal {}", lit);
        } else {
            prop_assert_eq!(parsed, None, "literal {}", lit);
        }
        // Inside a document, the literal ends where the general path
        // would end it.
        let doc = format!("[{lit},1]");
        let in_doc = serde_json::parse(&doc).ok().map(|v| v[0].as_f64().map(f64::to_bits));
        prop_assert_eq!(in_doc, parsed, "document {}", doc);
    }
}

#[test]
fn integer_fast_path_edges() {
    for lit in [
        "0",
        "7",
        "999999999999999",
        "1000000000000000",
        "9007199254740993",
        "00",
        "012",
    ] {
        let v = serde_json::parse(lit).unwrap();
        assert_eq!(
            v.as_f64().unwrap().to_bits(),
            lit.parse::<f64>().unwrap().to_bits(),
            "{lit}"
        );
    }
}

#[test]
fn escaped_surrogate_pairs_decode_to_one_char() {
    let s = |json: &str| {
        serde_json::parse(json)
            .unwrap()
            .as_str()
            .unwrap()
            .to_string()
    };
    assert_eq!(s(r#""\ud83d\ude00""#), "😀");
    assert_eq!(s(r#""a\uD834\uDD1Eb""#), "a𝄞b");
    // Lone surrogates stay U+FFFD, and what follows them is kept.
    assert_eq!(s(r#""\ud83d""#), "\u{fffd}");
    assert_eq!(s(r#""\ude00\ud83d""#), "\u{fffd}\u{fffd}");
    assert_eq!(s(r#""\ud83dx""#), "\u{fffd}x");
    assert_eq!(s(r#""\ud83d\n""#), "\u{fffd}\n");
    assert_eq!(s(r#""\ud83dA""#), "\u{fffd}A");
    assert_eq!(s(r#""\ud83d\ud83d\ude00""#), "\u{fffd}😀");
    assert!(serde_json::parse(r#""\ud83d\uZZZZ""#).is_err());
    // A string the writer emits raw round-trips unchanged.
    let text = "😀 \u{2028} é";
    assert_eq!(s(&serde_json::to_string(&text).unwrap()), text);
}

#[test]
fn zoo_kernels_populate_every_memo_shard() {
    let mut keys = BTreeSet::new();
    for name in zoo::MODEL_NAMES {
        for batch in [128, 1024, 4096] {
            let graph = zoo::build(name, batch).expect("zoo model builds");
            for node in graph.nodes() {
                let kernels = lower::try_kernels(&graph, node).expect("zoo model lowers");
                keys.extend(kernels.iter().map(MemoKey::of));
            }
        }
    }
    let mut per_shard = [0usize; 16];
    for key in &keys {
        per_shard[key.shard()] += 1;
    }
    assert!(
        per_shard.iter().all(|&n| n > 0),
        "an empty shard: {per_shard:?}"
    );
    let fair = keys.len() / per_shard.len();
    assert!(
        per_shard.iter().all(|&n| n <= 2 * fair),
        "a shard holds over twice its share of {} keys: {per_shard:?}",
        keys.len()
    );
}
