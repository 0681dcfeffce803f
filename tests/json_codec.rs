//! The JSON codec's contract, pinned: what every file `rex` reads is
//! accepted or rejected, and what an accepted value writes back.
//!
//! Two halves:
//!
//! * a hostile corpus run through the four decoders `rex` exposes to
//!   files — instances, solutions, workload specs and trace lines. Each
//!   input's outcome is `reject`, or `accept` plus the FNV-1a of the value
//!   re-serialized compactly. Every truncation of each base document is
//!   one row (how many of the prefixes are accepted). Error *texts* are not
//!   pinned, only accept/reject;
//! * one literal-string test per derive shape, compact and pretty, and
//!   the decoding rules the shapes follow (defaults, enum tagging,
//!   duplicate and unknown keys, array lengths).
//!
//! On a mismatch the corpus test prints the whole computed table in the
//! form `PINS` is written in.

use resource_exchange::cluster::Instance;
use resource_exchange::cluster::{MachineId, MigrationPlan, WorkloadSpec};
use resource_exchange::runtime::TraceLine;
use serde::{Deserialize, Serialize};

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The solution file `rex solve --out` writes and `rex verify` reads
/// (the binary's private `SolutionFile`, field for field).
#[derive(Serialize, Deserialize)]
struct SolutionFile {
    placement: Vec<MachineId>,
    plan: MigrationPlan,
    returned: Vec<MachineId>,
}

/// `reject`, or `accept` and the hash of the compact re-serialization.
fn outcome<T: Serialize + Deserialize>(text: &str) -> String {
    match serde_json::from_str::<T>(text) {
        Ok(v) => {
            let json = serde_json::to_string(&v).expect("serializes");
            format!("accept {:016x}", fnv1a(json.as_bytes()))
        }
        Err(_) => "reject".to_string(),
    }
}

/// How many proper prefixes of `text` (cut at char boundaries) decode.
fn truncations<T: Serialize + Deserialize>(text: &str) -> String {
    let cuts: Vec<usize> = (0..text.len())
        .filter(|&i| text.is_char_boundary(i))
        .collect();
    let accepted = cuts
        .iter()
        .filter(|&&i| serde_json::from_str::<T>(&text[..i]).is_ok())
        .count();
    format!("{accepted}/{} accepted", cuts.len())
}

/// `base` with the first `from` replaced by `to`; `from` must occur, so no
/// row silently tests the base document again.
fn edit(base: &str, from: &str, to: &str) -> String {
    assert!(base.contains(from), "`{from}` not in the base document");
    base.replacen(from, to, 1)
}

const INSTANCE: &str = concat!(
    r#"{"dims":2,"machines":["#,
    r#"{"id":0,"capacity":{"dims":2,"vals":[1,1,0,0,0,0,0,0]},"exchange":false},"#,
    r#"{"id":1,"capacity":{"dims":2,"vals":[1,0.5,0,0,0,0,0,0]},"exchange":true}],"#,
    r#""shards":["#,
    r#"{"id":0,"demand":{"dims":2,"vals":[0.25,0.125,0,0,0,0,0,0]},"move_cost":1.5},"#,
    r#"{"id":1,"demand":{"dims":2,"vals":[0.5,0.2,0,0,0,0,0,0]},"move_cost":2}],"#,
    r#""initial":[0,0],"k_return":1,"alpha":0.1,"label":"tiny"}"#
);

const SOLUTION: &str = concat!(
    r#"{"placement":[1,0],"#,
    r#""plan":{"batches":[[{"shard":0,"from":0,"to":1}],[]]},"#,
    r#""returned":[0]}"#
);

const TRACE_LINE: &str =
    r#"{"tick":5,"kind":"spike_start","fault":1,"machine":3,"shards":[4,7],"ranks":[]}"#;

const WORKLOAD: &str = include_str!("../examples/workload_rackfault.json");
const WORKLOAD_HET: &str = include_str!("../examples/workload_heterogeneous.json");

/// Rows shared by every decoder: syntax that no document survives.
fn syntax_rows(rows: &mut Vec<(String, String)>, ty: &str, base: &str, dec: fn(&str) -> String) {
    let mut row = |name: &str, text: String| rows.push((format!("{ty}/{name}"), dec(&text)));
    row("base", base.to_string());
    row("leading-ws", format!(" \n\t\r{base}"));
    row("trailing-ws", format!("{base} \n"));
    row("trailing-garbage", format!("{base}x"));
    row("trailing-comma", format!("{base},"));
    row("trailing-object", format!("{base}{{}}"));
    row("trailing-null", format!("{base} null"));
    row("twice", format!("{base}{base}"));
    row("empty", String::new());
    row("ws-only", "  ".to_string());
    row("null", "null".to_string());
    row("array", "[]".to_string());
    row("empty-object", "{}".to_string());
    row("string", "\"x\"".to_string());
    row("number", "1".to_string());
    row(
        "unknown-key",
        edit(base, "{", r#"{"zzz":{"a":[1,2.5,-3,{"b":null}],"c":"A"},"#),
    );
    row("unknown-key-bad-syntax", edit(base, "{", r#"{"zzz":[1,},"#));
    row("unknown-key-bad-number", edit(base, "{", r#"{"zzz":1e,"#));
    row("unknown-key-bad-escape", edit(base, "{", r#"{"zzz":"\x","#));
    row(
        "unknown-key-lone-surrogate",
        edit(base, "{", r#"{"zzz":"\udc00","#),
    );
    row("unknown-key-deep", {
        let deep = format!("{}{}", "[".repeat(60), "]".repeat(60));
        edit(base, "{", &format!("{{\"zzz\":{deep},"))
    });
    row(
        "unknown-key-unterminated",
        edit(base, "{", r#"{"zzz":"abc,"#),
    );
    row("key-not-string", edit(base, "{", "{zzz:1,"));
    row("key-no-colon", edit(base, "{", r#"{"zzz" 1,"#));
    row("leading-comma", edit(base, "{", "{,"));
    row(
        "trailing-comma-in-object",
        format!("{},}}", &base.trim_end()[..base.trim_end().len() - 1]),
    );
    rows.push((format!("{ty}/truncations"), String::new()));
}

fn corpus() -> Vec<(String, String)> {
    let mut rows: Vec<(String, String)> = Vec::new();

    // ---- instances -----------------------------------------------------
    let dec = outcome::<Instance>;
    syntax_rows(&mut rows, "instance", INSTANCE, dec);
    rows.last_mut().unwrap().1 = truncations::<Instance>(INSTANCE);
    let i = INSTANCE;
    let cases: Vec<(&str, String)> = vec![
        (
            "dup-dims-wrong-type",
            edit(i, r#""dims":2,"#, r#""dims":2,"dims":"x","#),
        ),
        (
            "dup-alpha-second-valid",
            edit(i, r#""alpha":0.1,"#, r#""alpha":0.1,"alpha":0.9,"#),
        ),
        (
            "dup-alpha-second-bad-syntax",
            edit(i, r#""alpha":0.1,"#, r#""alpha":0.1,"alpha":[,"#),
        ),
        (
            "dup-machines",
            edit(i, r#""shards":"#, r#""machines":[],"shards":"#),
        ),
        ("escaped-key", edit(i, r#""dims":2"#, r#""\u0064ims":2"#)),
        ("missing-label", edit(i, r#","label":"tiny""#, "")),
        ("missing-dims", edit(i, r#""dims":2,"#, "")),
        ("dims-string", edit(i, r#""dims":2"#, r#""dims":"2""#)),
        ("dims-float", edit(i, r#""dims":2"#, r#""dims":2.0"#)),
        ("dims-exp", edit(i, r#""dims":2"#, r#""dims":2e0"#)),
        ("dims-negative", edit(i, r#""dims":2"#, r#""dims":-2"#)),
        (
            "dims-u64-max",
            edit(i, r#""dims":2"#, r#""dims":18446744073709551615"#),
        ),
        (
            "dims-2^64",
            edit(i, r#""dims":2"#, r#""dims":18446744073709551616"#),
        ),
        ("dims-leading-zero", edit(i, r#""dims":2"#, r#""dims":02"#)),
        ("dims-plus", edit(i, r#""dims":2"#, r#""dims":+2"#)),
        ("dims-null", edit(i, r#""dims":2"#, r#""dims":null"#)),
        ("dims-true", edit(i, r#""dims":2"#, r#""dims":true"#)),
        (
            "rv-dims-256",
            edit(i, r#"{"dims":2,"vals":[1,1"#, r#"{"dims":256,"vals":[1,1"#),
        ),
        (
            "rv-dims-255",
            edit(i, r#"{"dims":2,"vals":[1,1"#, r#"{"dims":255,"vals":[1,1"#),
        ),
        (
            "rv-vals-short",
            edit(i, "[1,1,0,0,0,0,0,0]", "[1,1,0,0,0,0,0]"),
        ),
        (
            "rv-vals-long",
            edit(i, "[1,1,0,0,0,0,0,0]", "[1,1,0,0,0,0,0,0,0]"),
        ),
        ("rv-vals-empty", edit(i, "[1,1,0,0,0,0,0,0]", "[]")),
        (
            "rv-vals-null-elem",
            edit(i, "[1,1,0,0,0,0,0,0]", "[1,null,0,0,0,0,0,0]"),
        ),
        (
            "rv-vals-string-elem",
            edit(i, "[1,1,0,0,0,0,0,0]", r#"[1,"1",0,0,0,0,0,0]"#),
        ),
        ("rv-vals-object", edit(i, "[1,1,0,0,0,0,0,0]", "{}")),
        (
            "rv-vals-trailing-comma",
            edit(i, "[1,1,0,0,0,0,0,0]", "[1,1,0,0,0,0,0,0,]"),
        ),
        (
            "rv-vals-no-comma",
            edit(i, "[1,1,0,0,0,0,0,0]", "[1 1,0,0,0,0,0,0]"),
        ),
        ("alpha-null", edit(i, r#""alpha":0.1"#, r#""alpha":null"#)),
        ("alpha-int", edit(i, r#""alpha":0.1"#, r#""alpha":1"#)),
        ("alpha-1e300", edit(i, r#""alpha":0.1"#, r#""alpha":1e300"#)),
        ("alpha-1e400", edit(i, r#""alpha":0.1"#, r#""alpha":1e400"#)),
        (
            "alpha-neg-zero-int",
            edit(i, r#""alpha":0.1"#, r#""alpha":-0"#),
        ),
        (
            "alpha-neg-zero-float",
            edit(i, r#""alpha":0.1"#, r#""alpha":-0.0"#),
        ),
        (
            "alpha-exp-sign",
            edit(i, r#""alpha":0.1"#, r#""alpha":1E+2"#),
        ),
        (
            "alpha-trailing-dot",
            edit(i, r#""alpha":0.1"#, r#""alpha":1."#),
        ),
        (
            "alpha-leading-dot",
            edit(i, r#""alpha":0.1"#, r#""alpha":.5"#),
        ),
        (
            "alpha-minus-only",
            edit(i, r#""alpha":0.1"#, r#""alpha":-"#),
        ),
        ("alpha-exp-only", edit(i, r#""alpha":0.1"#, r#""alpha":1e"#)),
        (
            "alpha-i64-min",
            edit(i, r#""alpha":0.1"#, r#""alpha":-9223372036854775808"#),
        ),
        (
            "alpha-below-i64",
            edit(i, r#""alpha":0.1"#, r#""alpha":-9223372036854775809"#),
        ),
        (
            "alpha-u64-max",
            edit(i, r#""alpha":0.1"#, r#""alpha":18446744073709551615"#),
        ),
        (
            "alpha-string",
            edit(i, r#""alpha":0.1"#, r#""alpha":"0.1""#),
        ),
        ("alpha-nan", edit(i, r#""alpha":0.1"#, r#""alpha":NaN"#)),
        (
            "alpha-infinity",
            edit(i, r#""alpha":0.1"#, r#""alpha":Infinity"#),
        ),
        ("alpha-nul", edit(i, r#""alpha":0.1"#, r#""alpha":nul"#)),
        ("alpha-array", edit(i, r#""alpha":0.1"#, r#""alpha":[0.1]"#)),
        (
            "move-cost-null",
            edit(i, r#""move_cost":2"#, r#""move_cost":null"#),
        ),
        (
            "exchange-int",
            edit(i, r#""exchange":true"#, r#""exchange":1"#),
        ),
        (
            "exchange-tru",
            edit(i, r#""exchange":true"#, r#""exchange":tru"#),
        ),
        (
            "exchange-null",
            edit(i, r#""exchange":true"#, r#""exchange":null"#),
        ),
        (
            "id-u32-max",
            edit(i, r#""initial":[0,0]"#, r#""initial":[0,4294967295]"#),
        ),
        (
            "id-2^32",
            edit(i, r#""initial":[0,0]"#, r#""initial":[0,4294967296]"#),
        ),
        (
            "id-u64-max",
            edit(
                i,
                r#""initial":[0,0]"#,
                r#""initial":[0,18446744073709551615]"#,
            ),
        ),
        (
            "id-minus-one",
            edit(i, r#""initial":[0,0]"#, r#""initial":[0,-1]"#),
        ),
        (
            "id-neg-zero",
            edit(i, r#""initial":[0,0]"#, r#""initial":[0,-0]"#),
        ),
        (
            "id-float",
            edit(i, r#""initial":[0,0]"#, r#""initial":[0,1.0]"#),
        ),
        (
            "id-string",
            edit(i, r#""initial":[0,0]"#, r#""initial":[0,"1"]"#),
        ),
        (
            "id-null",
            edit(i, r#""initial":[0,0]"#, r#""initial":[0,null]"#),
        ),
        (
            "initial-null",
            edit(i, r#""initial":[0,0]"#, r#""initial":null"#),
        ),
        (
            "initial-empty",
            edit(i, r#""initial":[0,0]"#, r#""initial":[]"#),
        ),
        (
            "machines-object",
            edit(i, r#""machines":["#, r#""machines":{},"zz":["#),
        ),
        (
            "shard-id-u32-max",
            edit(i, r#"{"id":1,"demand""#, r#"{"id":4294967295,"demand""#),
        ),
        (
            "shard-id-2^32",
            edit(i, r#"{"id":1,"demand""#, r#"{"id":4294967296,"demand""#),
        ),
        (
            "label-escapes",
            edit(i, r#""tiny""#, r#""a\"b\\c\/d\b\f\n\r\t\u0041\u00e9""#),
        ),
        (
            "label-surrogate-pair",
            edit(i, r#""tiny""#, r#""\ud83d\ude00""#),
        ),
        ("label-raw-utf8", edit(i, r#""tiny""#, "\"é😀\"")),
        ("label-raw-control", edit(i, r#""tiny""#, "\"a\u{1}b\tc\"")),
        ("label-lone-high", edit(i, r#""tiny""#, r#""\ud83d""#)),
        (
            "label-lone-high-then-char",
            edit(i, r#""tiny""#, r#""\ud83dx""#),
        ),
        ("label-lone-low", edit(i, r#""tiny""#, r#""\ude00""#)),
        (
            "label-high-then-non-low",
            edit(i, r#""tiny""#, r#""\ud83dA""#),
        ),
        (
            "label-high-then-high",
            edit(i, r#""tiny""#, r#""\ud83d\ud83d""#),
        ),
        ("label-short-hex", edit(i, r#""tiny""#, r#""\u12""#)),
        ("label-bad-hex", edit(i, r#""tiny""#, r#""\u12g4""#)),
        ("label-bad-escape", edit(i, r#""tiny""#, r#""\x""#)),
        ("label-int", edit(i, r#""tiny""#, "5")),
        ("label-null", edit(i, r#""tiny""#, "null")),
    ];
    for (name, text) in cases {
        rows.push((format!("instance/{name}"), dec(&text)));
    }

    // ---- solutions -----------------------------------------------------
    let dec = outcome::<SolutionFile>;
    syntax_rows(&mut rows, "solution", SOLUTION, dec);
    rows.last_mut().unwrap().1 = truncations::<SolutionFile>(SOLUTION);
    let s = SOLUTION;
    let cases: Vec<(&str, String)> = vec![
        ("placement-u32-max", edit(s, "[1,0]", "[4294967295,0]")),
        ("placement-2^32", edit(s, "[1,0]", "[4294967296,0]")),
        (
            "placement-u64-max",
            edit(s, "[1,0]", "[18446744073709551615,0]"),
        ),
        ("placement-minus-one", edit(s, "[1,0]", "[-1,0]")),
        ("placement-float", edit(s, "[1,0]", "[1.0,0]")),
        ("placement-nested", edit(s, "[1,0]", "[[1],0]")),
        ("move-to-2^32", edit(s, r#""to":1"#, r#""to":4294967296"#)),
        ("move-to-minus-one", edit(s, r#""to":1"#, r#""to":-1"#)),
        ("move-missing-to", edit(s, r#","to":1"#, "")),
        ("move-dup-to", edit(s, r#""to":1"#, r#""to":1,"to":-1"#)),
        (
            "move-unknown-key",
            edit(s, r#""to":1"#, r#""to":1,"via":[2]"#),
        ),
        (
            "batches-empty",
            edit(s, r#"[[{"shard":0,"from":0,"to":1}],[]]"#, "[]"),
        ),
        (
            "batches-null",
            edit(s, r#"[[{"shard":0,"from":0,"to":1}],[]]"#, "null"),
        ),
        ("plan-null", edit(s, r#""plan":{"#, r#""plan":null,"zz":{"#)),
        ("plan-empty", edit(s, r#""plan":{"#, r#""plan":{},"zz":{"#)),
        ("returned-missing", edit(s, r#","returned":[0]"#, "")),
        (
            "returned-object",
            edit(s, r#""returned":[0]"#, r#""returned":{"0":0}"#),
        ),
        (
            "dup-placement",
            edit(
                s,
                r#""placement":[1,0],"#,
                r#""placement":[1,0],"placement":"x","#,
            ),
        ),
    ];
    for (name, text) in cases {
        rows.push((format!("solution/{name}"), dec(&text)));
    }

    // ---- workload specs ------------------------------------------------
    let dec = outcome::<WorkloadSpec>;
    syntax_rows(&mut rows, "workload", WORKLOAD, dec);
    rows.last_mut().unwrap().1 = truncations::<WorkloadSpec>(WORKLOAD);
    rows.push(("workload/heterogeneous".into(), dec(WORKLOAD_HET)));
    rows.push((
        "workload/heterogeneous-truncations".into(),
        truncations::<WorkloadSpec>(WORKLOAD_HET),
    ));
    let w = WORKLOAD;
    let cases: Vec<(&str, String)> = vec![
        (
            "fleet-null",
            edit(w, r#""fleet": {"#, r#""fleet": null, "zz": {"#),
        ),
        (
            "fleet-empty",
            edit(w, r#""fleet": {"#, r#""fleet": {}, "zz": {"#),
        ),
        ("load-absent", edit(w, r#""load": null,"#, "")),
        ("load-int", edit(w, r#""load": null"#, r#""load": 5"#)),
        (
            "rack-crashes-absent",
            edit(w, ",\n  \"rack_crashes\"", ",\n  \"zz\""),
        ),
        (
            "rack-crashes-null",
            edit(
                w,
                r#""rack_crashes": ["#,
                r#""rack_crashes": null, "zz": ["#,
            ),
        ),
        ("crash-absent", edit(w, "\"crash\": null,", "")),
        ("crash-empty", edit(w, "\"crash\": null", "\"crash\": {}")),
        (
            "spike-null",
            edit(w, r#""spike": {"#, r#""spike": null, "zz": {"#),
        ),
        (
            "spike-factor-null",
            edit(w, r#""factor": 1.6"#, r#""factor": null"#),
        ),
        (
            "spike-factor-int",
            edit(w, r#""factor": 1.6"#, r#""factor": 2"#),
        ),
        (
            "spike-factor-neg-zero",
            edit(w, r#""factor": 1.6"#, r#""factor": -0"#),
        ),
        (
            "spike-factor-1e300",
            edit(w, r#""factor": 1.6"#, r#""factor": 1e300"#),
        ),
        (
            "ticks-float",
            edit(w, r#""ticks": 800"#, r#""ticks": 800.0"#),
        ),
        (
            "ticks-u64-max",
            edit(w, r#""ticks": 800"#, r#""ticks": 18446744073709551615"#),
        ),
        (
            "ticks-minus-one",
            edit(w, r#""ticks": 800"#, r#""ticks": -1"#),
        ),
        (
            "seed-u64-max",
            edit(w, r#""seed": 7"#, r#""seed": 18446744073709551615"#),
        ),
        (
            "racks-2^32",
            edit(w, r#""racks": 3"#, r#""racks": 4294967296"#),
        ),
        (
            "rack-u32-max",
            edit(w, r#""rack": 1"#, r#""rack": 4294967295"#),
        ),
        (
            "rack-2^32",
            edit(w, r#""rack": 1"#, r#""rack": 4294967296"#),
        ),
        ("rack-minus-one", edit(w, r#""rack": 1"#, r#""rack": -1"#)),
        (
            "dup-scenario",
            edit(w, "{\n  \"scenario\"", "{\"scenario\": 5, \"scenario\""),
        ),
        (
            "dup-scenario-second",
            edit(w, "\n  \"fleet\"", "\"scenario\": 5,\n  \"fleet\""),
        ),
        (
            "name-surrogates",
            edit(w, r#""gen-a""#, r#""\ud83d\ude00\u00e9""#),
        ),
        ("name-lone-surrogate", edit(w, r#""gen-a""#, r#""\ud83d""#)),
    ];
    for (name, text) in cases {
        rows.push((format!("workload/{name}"), dec(&text)));
    }

    // ---- trace lines ---------------------------------------------------
    let dec = outcome::<TraceLine>;
    syntax_rows(&mut rows, "trace", TRACE_LINE, dec);
    rows.last_mut().unwrap().1 = truncations::<TraceLine>(TRACE_LINE);
    let t = TRACE_LINE;
    let cases: Vec<(&str, String)> = vec![
        (
            "tick-u64-max",
            edit(t, r#""tick":5"#, r#""tick":18446744073709551615"#),
        ),
        (
            "tick-2^64",
            edit(t, r#""tick":5"#, r#""tick":18446744073709551616"#),
        ),
        ("tick-minus-one", edit(t, r#""tick":5"#, r#""tick":-1"#)),
        ("tick-float", edit(t, r#""tick":5"#, r#""tick":5.5"#)),
        ("tick-neg-zero", edit(t, r#""tick":5"#, r#""tick":-0"#)),
        (
            "machine-u32-max",
            edit(t, r#""machine":3"#, r#""machine":4294967295"#),
        ),
        (
            "machine-2^32",
            edit(t, r#""machine":3"#, r#""machine":4294967296"#),
        ),
        (
            "machine-u64-max",
            edit(t, r#""machine":3"#, r#""machine":18446744073709551615"#),
        ),
        (
            "machine-minus-one",
            edit(t, r#""machine":3"#, r#""machine":-1"#),
        ),
        ("fault-minus-one", edit(t, r#""fault":1"#, r#""fault":-1"#)),
        ("shards-2^32", edit(t, "[4,7]", "[4,4294967296]")),
        ("shards-minus-one", edit(t, "[4,7]", "[4,-1]")),
        ("shards-null", edit(t, "[4,7]", "null")),
        ("ranks-missing", edit(t, r#","ranks":[]"#, "")),
        ("kind-null", edit(t, r#""spike_start""#, "null")),
        (
            "kind-escapes",
            edit(t, r#""spike_start""#, r#""crash\n\"\\""#),
        ),
        (
            "kind-surrogate-pair",
            edit(t, r#""spike_start""#, r#""\ud83d\ude00""#),
        ),
        (
            "kind-unterminated",
            edit(t, r#""ranks":[]}"#, r#""ranks":[],"x":"abc}"#),
        ),
        (
            "dup-tick",
            edit(t, r#""tick":5,"#, r#""tick":5,"tick":-1,"#),
        ),
        (
            "dup-tick-second-valid",
            edit(t, r#""tick":5,"#, r#""tick":5,"tick":9,"#),
        ),
    ];
    for (name, text) in cases {
        rows.push((format!("trace/{name}"), dec(&text)));
    }
    rows
}

/// Recorded from the reader/writer that built the `Value` tree first.
const PINS: &[(&str, &str)] = &[
    ("instance/base", "accept cbf93cf548b5a022"),
    ("instance/leading-ws", "accept cbf93cf548b5a022"),
    ("instance/trailing-ws", "accept cbf93cf548b5a022"),
    ("instance/trailing-garbage", "reject"),
    ("instance/trailing-comma", "reject"),
    ("instance/trailing-object", "reject"),
    ("instance/trailing-null", "reject"),
    ("instance/twice", "reject"),
    ("instance/empty", "reject"),
    ("instance/ws-only", "reject"),
    ("instance/null", "reject"),
    ("instance/array", "reject"),
    ("instance/empty-object", "reject"),
    ("instance/string", "reject"),
    ("instance/number", "reject"),
    ("instance/unknown-key", "accept cbf93cf548b5a022"),
    ("instance/unknown-key-bad-syntax", "reject"),
    ("instance/unknown-key-bad-number", "reject"),
    ("instance/unknown-key-bad-escape", "reject"),
    ("instance/unknown-key-lone-surrogate", "reject"),
    ("instance/unknown-key-deep", "accept cbf93cf548b5a022"),
    ("instance/unknown-key-unterminated", "reject"),
    ("instance/key-not-string", "reject"),
    ("instance/key-no-colon", "reject"),
    ("instance/leading-comma", "reject"),
    ("instance/trailing-comma-in-object", "reject"),
    ("instance/truncations", "0/386 accepted"),
    ("instance/dup-dims-wrong-type", "accept cbf93cf548b5a022"),
    ("instance/dup-alpha-second-valid", "accept cbf93cf548b5a022"),
    ("instance/dup-alpha-second-bad-syntax", "reject"),
    ("instance/dup-machines", "accept cbf93cf548b5a022"),
    ("instance/escaped-key", "accept cbf93cf548b5a022"),
    ("instance/missing-label", "reject"),
    ("instance/missing-dims", "reject"),
    ("instance/dims-string", "reject"),
    ("instance/dims-float", "reject"),
    ("instance/dims-exp", "reject"),
    ("instance/dims-negative", "reject"),
    ("instance/dims-u64-max", "accept 0acdd2cff33347b1"),
    ("instance/dims-2^64", "reject"),
    ("instance/dims-leading-zero", "accept cbf93cf548b5a022"),
    ("instance/dims-plus", "reject"),
    ("instance/dims-null", "reject"),
    ("instance/dims-true", "reject"),
    ("instance/rv-dims-256", "reject"),
    ("instance/rv-dims-255", "accept a335b50501a351c4"),
    ("instance/rv-vals-short", "reject"),
    ("instance/rv-vals-long", "reject"),
    ("instance/rv-vals-empty", "reject"),
    ("instance/rv-vals-null-elem", "accept b7574a8aa84a1cc0"),
    ("instance/rv-vals-string-elem", "reject"),
    ("instance/rv-vals-object", "reject"),
    ("instance/rv-vals-trailing-comma", "reject"),
    ("instance/rv-vals-no-comma", "reject"),
    ("instance/alpha-null", "accept af0f0a1fdc4ecd2a"),
    ("instance/alpha-int", "accept e1067330b7b60b3c"),
    ("instance/alpha-1e300", "accept 92e6b8f65bdbf10c"),
    ("instance/alpha-1e400", "accept af0f0a1fdc4ecd2a"),
    ("instance/alpha-neg-zero-int", "accept 1bb9e62b34e59607"),
    ("instance/alpha-neg-zero-float", "accept 72e5d29f4c287be6"),
    ("instance/alpha-exp-sign", "accept de34627100759864"),
    ("instance/alpha-trailing-dot", "accept e1067330b7b60b3c"),
    ("instance/alpha-leading-dot", "reject"),
    ("instance/alpha-minus-only", "reject"),
    ("instance/alpha-exp-only", "reject"),
    ("instance/alpha-i64-min", "accept 0cbbb82d5722115c"),
    ("instance/alpha-below-i64", "accept 0cbbb82d5722115c"),
    ("instance/alpha-u64-max", "accept e6a5c3161bdfcc35"),
    ("instance/alpha-string", "reject"),
    ("instance/alpha-nan", "reject"),
    ("instance/alpha-infinity", "reject"),
    ("instance/alpha-nul", "reject"),
    ("instance/alpha-array", "reject"),
    ("instance/move-cost-null", "accept 090a6c733c966939"),
    ("instance/exchange-int", "reject"),
    ("instance/exchange-tru", "reject"),
    ("instance/exchange-null", "reject"),
    ("instance/id-u32-max", "accept c09274475c0ce711"),
    ("instance/id-2^32", "reject"),
    ("instance/id-u64-max", "reject"),
    ("instance/id-minus-one", "reject"),
    ("instance/id-neg-zero", "reject"),
    ("instance/id-float", "reject"),
    ("instance/id-string", "reject"),
    ("instance/id-null", "reject"),
    ("instance/initial-null", "reject"),
    ("instance/initial-empty", "accept fbd6870c43668dfe"),
    ("instance/machines-object", "reject"),
    ("instance/shard-id-u32-max", "accept 1a9438f364c6788e"),
    ("instance/shard-id-2^32", "reject"),
    ("instance/label-escapes", "accept 9d97209f78bd73d3"),
    ("instance/label-surrogate-pair", "accept a478b21fbdbf2fb9"),
    ("instance/label-raw-utf8", "accept 6368c050bb8798f5"),
    ("instance/label-raw-control", "accept 577fbcc25472314a"),
    ("instance/label-lone-high", "reject"),
    ("instance/label-lone-high-then-char", "reject"),
    ("instance/label-lone-low", "reject"),
    ("instance/label-high-then-non-low", "reject"),
    ("instance/label-high-then-high", "reject"),
    ("instance/label-short-hex", "reject"),
    ("instance/label-bad-hex", "reject"),
    ("instance/label-bad-escape", "reject"),
    ("instance/label-int", "reject"),
    ("instance/label-null", "reject"),
    ("solution/base", "accept ca32a3b981973463"),
    ("solution/leading-ws", "accept ca32a3b981973463"),
    ("solution/trailing-ws", "accept ca32a3b981973463"),
    ("solution/trailing-garbage", "reject"),
    ("solution/trailing-comma", "reject"),
    ("solution/trailing-object", "reject"),
    ("solution/trailing-null", "reject"),
    ("solution/twice", "reject"),
    ("solution/empty", "reject"),
    ("solution/ws-only", "reject"),
    ("solution/null", "reject"),
    ("solution/array", "reject"),
    ("solution/empty-object", "reject"),
    ("solution/string", "reject"),
    ("solution/number", "reject"),
    ("solution/unknown-key", "accept ca32a3b981973463"),
    ("solution/unknown-key-bad-syntax", "reject"),
    ("solution/unknown-key-bad-number", "reject"),
    ("solution/unknown-key-bad-escape", "reject"),
    ("solution/unknown-key-lone-surrogate", "reject"),
    ("solution/unknown-key-deep", "accept ca32a3b981973463"),
    ("solution/unknown-key-unterminated", "reject"),
    ("solution/key-not-string", "reject"),
    ("solution/key-no-colon", "reject"),
    ("solution/leading-comma", "reject"),
    ("solution/trailing-comma-in-object", "reject"),
    ("solution/truncations", "0/88 accepted"),
    ("solution/placement-u32-max", "accept 6b3739338e1bbacf"),
    ("solution/placement-2^32", "reject"),
    ("solution/placement-u64-max", "reject"),
    ("solution/placement-minus-one", "reject"),
    ("solution/placement-float", "reject"),
    ("solution/placement-nested", "reject"),
    ("solution/move-to-2^32", "reject"),
    ("solution/move-to-minus-one", "reject"),
    ("solution/move-missing-to", "reject"),
    ("solution/move-dup-to", "accept ca32a3b981973463"),
    ("solution/move-unknown-key", "accept ca32a3b981973463"),
    ("solution/batches-empty", "accept bc6b29788c965715"),
    ("solution/batches-null", "reject"),
    ("solution/plan-null", "reject"),
    ("solution/plan-empty", "reject"),
    ("solution/returned-missing", "reject"),
    ("solution/returned-object", "reject"),
    ("solution/dup-placement", "accept ca32a3b981973463"),
    ("workload/base", "accept b56eca766d07bbd4"),
    ("workload/leading-ws", "accept b56eca766d07bbd4"),
    ("workload/trailing-ws", "accept b56eca766d07bbd4"),
    ("workload/trailing-garbage", "reject"),
    ("workload/trailing-comma", "reject"),
    ("workload/trailing-object", "reject"),
    ("workload/trailing-null", "reject"),
    ("workload/twice", "reject"),
    ("workload/empty", "reject"),
    ("workload/ws-only", "reject"),
    ("workload/null", "reject"),
    ("workload/array", "reject"),
    ("workload/empty-object", "reject"),
    ("workload/string", "reject"),
    ("workload/number", "reject"),
    ("workload/unknown-key", "accept b56eca766d07bbd4"),
    ("workload/unknown-key-bad-syntax", "reject"),
    ("workload/unknown-key-bad-number", "reject"),
    ("workload/unknown-key-bad-escape", "reject"),
    ("workload/unknown-key-lone-surrogate", "reject"),
    ("workload/unknown-key-deep", "accept b56eca766d07bbd4"),
    ("workload/unknown-key-unterminated", "reject"),
    ("workload/key-not-string", "reject"),
    ("workload/key-no-colon", "reject"),
    ("workload/leading-comma", "reject"),
    ("workload/trailing-comma-in-object", "reject"),
    ("workload/truncations", "1/634 accepted"),
    ("workload/heterogeneous", "accept ee21d33ae6550ec9"),
    ("workload/heterogeneous-truncations", "1/731 accepted"),
    ("workload/fleet-null", "accept 089a43a815a4fc89"),
    ("workload/fleet-empty", "reject"),
    ("workload/load-absent", "accept b56eca766d07bbd4"),
    ("workload/load-int", "reject"),
    ("workload/rack-crashes-absent", "accept 02800a7d6359c5c1"),
    ("workload/rack-crashes-null", "reject"),
    ("workload/crash-absent", "accept b56eca766d07bbd4"),
    ("workload/crash-empty", "reject"),
    ("workload/spike-null", "accept 360767107f4d9f5f"),
    ("workload/spike-factor-null", "accept a2d74c6cb1c72978"),
    ("workload/spike-factor-int", "accept b10b9cf2dd352755"),
    ("workload/spike-factor-neg-zero", "accept 30179e44111e6cf3"),
    ("workload/spike-factor-1e300", "accept da1ea9c03b88fa18"),
    ("workload/ticks-float", "reject"),
    ("workload/ticks-u64-max", "accept dec3b7cb68679317"),
    ("workload/ticks-minus-one", "reject"),
    ("workload/seed-u64-max", "accept f5f9402e52475982"),
    ("workload/racks-2^32", "accept c1c5d6d40db94483"),
    ("workload/rack-u32-max", "accept 044fce6d0b75cc62"),
    ("workload/rack-2^32", "accept d7faf7c435b84255"),
    ("workload/rack-minus-one", "reject"),
    ("workload/dup-scenario", "reject"),
    ("workload/dup-scenario-second", "accept b56eca766d07bbd4"),
    ("workload/name-surrogates", "accept 50704a5bb6876133"),
    ("workload/name-lone-surrogate", "reject"),
    ("trace/base", "accept 1001f26bde6f3aae"),
    ("trace/leading-ws", "accept 1001f26bde6f3aae"),
    ("trace/trailing-ws", "accept 1001f26bde6f3aae"),
    ("trace/trailing-garbage", "reject"),
    ("trace/trailing-comma", "reject"),
    ("trace/trailing-object", "reject"),
    ("trace/trailing-null", "reject"),
    ("trace/twice", "reject"),
    ("trace/empty", "reject"),
    ("trace/ws-only", "reject"),
    ("trace/null", "reject"),
    ("trace/array", "reject"),
    ("trace/empty-object", "reject"),
    ("trace/string", "reject"),
    ("trace/number", "reject"),
    ("trace/unknown-key", "accept 1001f26bde6f3aae"),
    ("trace/unknown-key-bad-syntax", "reject"),
    ("trace/unknown-key-bad-number", "reject"),
    ("trace/unknown-key-bad-escape", "reject"),
    ("trace/unknown-key-lone-surrogate", "reject"),
    ("trace/unknown-key-deep", "accept 1001f26bde6f3aae"),
    ("trace/unknown-key-unterminated", "reject"),
    ("trace/key-not-string", "reject"),
    ("trace/key-no-colon", "reject"),
    ("trace/leading-comma", "reject"),
    ("trace/trailing-comma-in-object", "reject"),
    ("trace/truncations", "0/79 accepted"),
    ("trace/tick-u64-max", "accept a2a3456972ca3932"),
    ("trace/tick-2^64", "reject"),
    ("trace/tick-minus-one", "reject"),
    ("trace/tick-float", "reject"),
    ("trace/tick-neg-zero", "reject"),
    ("trace/machine-u32-max", "accept 002a5103cc40b19e"),
    ("trace/machine-2^32", "reject"),
    ("trace/machine-u64-max", "reject"),
    ("trace/machine-minus-one", "reject"),
    ("trace/fault-minus-one", "reject"),
    ("trace/shards-2^32", "reject"),
    ("trace/shards-minus-one", "reject"),
    ("trace/shards-null", "reject"),
    ("trace/ranks-missing", "reject"),
    ("trace/kind-null", "reject"),
    ("trace/kind-escapes", "accept addabbd1565f3d90"),
    ("trace/kind-surrogate-pair", "accept 0e00533873fcb9ee"),
    ("trace/kind-unterminated", "reject"),
    ("trace/dup-tick", "accept 1001f26bde6f3aae"),
    ("trace/dup-tick-second-valid", "accept 1001f26bde6f3aae"),
];

#[test]
fn hostile_corpus_matches_the_frozen_outcomes() {
    let rows = corpus();
    let got: Vec<(&str, &str)> = rows.iter().map(|(n, o)| (n.as_str(), o.as_str())).collect();
    if got != PINS {
        let mut table = String::new();
        for (n, o) in &got {
            table.push_str(&format!("    ({n:?}, {o:?}),\n"));
        }
        for (n, o) in &got {
            match PINS.iter().find(|(pn, _)| pn == n) {
                Some((_, po)) if po == o => {}
                Some((_, po)) => eprintln!("{n}: pinned {po}, got {o}"),
                None => eprintln!("{n}: not pinned (got {o})"),
            }
        }
        panic!("corpus outcomes moved; computed table:\n{table}");
    }
}

// ---- derive shapes ------------------------------------------------------

fn check<T>(v: &T, compact: &str, pretty: &str)
where
    T: Serialize + Deserialize + PartialEq + std::fmt::Debug,
{
    assert_eq!(serde_json::to_string(v).unwrap(), compact);
    assert_eq!(serde_json::to_string_pretty(v).unwrap(), pretty);
    assert_eq!(&serde_json::from_str::<T>(compact).unwrap(), v);
    assert_eq!(&serde_json::from_str::<T>(pretty).unwrap(), v);
}

fn rejects<T: Deserialize>(text: &str) -> bool {
    serde_json::from_str::<T>(text).is_err()
}

#[derive(Serialize, Deserialize, Debug, PartialEq)]
struct Named {
    id: u32,
    weight: f64,
    name: String,
    flags: Vec<bool>,
    delta: i64,
}

#[test]
fn named_struct() {
    let v = Named {
        id: 7,
        weight: 0.1,
        name: "a\"b".into(),
        flags: vec![true, false],
        delta: -3,
    };
    check(
        &v,
        r#"{"id":7,"weight":0.1,"name":"a\"b","flags":[true,false],"delta":-3}"#,
        "{\n  \"id\": 7,\n  \"weight\": 0.1,\n  \"name\": \"a\\\"b\",\n  \"flags\": [\n    true,\n    false\n  ],\n  \"delta\": -3\n}",
    );
    // Key order is free; unknown keys are skipped; the first duplicate wins.
    let back: Named = serde_json::from_str(
        r#"{"delta":-3,"zz":[{}],"flags":[true,false],"name":"a\"b","weight":0.1,"id":7,"id":"x"}"#,
    )
    .unwrap();
    assert_eq!(back, v);
    assert!(rejects::<Named>(
        r#"{"id":7,"weight":0.1,"name":"","flags":[]}"#
    ));
}

#[derive(Serialize, Deserialize, Debug, PartialEq)]
struct FieldDefault {
    id: u32,
    #[serde(default)]
    tags: Vec<u32>,
    #[serde(default)]
    scale: f64,
}

#[test]
fn field_default() {
    let v = FieldDefault {
        id: 1,
        tags: vec![],
        scale: 2.5,
    };
    check(
        &v,
        r#"{"id":1,"tags":[],"scale":2.5}"#,
        "{\n  \"id\": 1,\n  \"tags\": [],\n  \"scale\": 2.5\n}",
    );
    let absent: FieldDefault = serde_json::from_str(r#"{"id":1}"#).unwrap();
    assert_eq!(
        absent,
        FieldDefault {
            id: 1,
            tags: vec![],
            scale: 0.0
        }
    );
    assert!(rejects::<FieldDefault>(r#"{"tags":[1]}"#));
    assert!(rejects::<FieldDefault>(r#"{"id":1,"tags":null}"#));
}

#[derive(Serialize, Deserialize, Debug, PartialEq)]
#[serde(default)]
struct ContainerDefault {
    id: u32,
    name: String,
    ratio: f64,
}

impl Default for ContainerDefault {
    fn default() -> Self {
        Self {
            id: 9,
            name: "dflt".into(),
            ratio: 0.75,
        }
    }
}

#[test]
fn container_default() {
    let v = ContainerDefault {
        id: 1,
        name: "x".into(),
        ratio: 1.0,
    };
    check(
        &v,
        r#"{"id":1,"name":"x","ratio":1}"#,
        "{\n  \"id\": 1,\n  \"name\": \"x\",\n  \"ratio\": 1\n}",
    );
    // Absent keys take the container's own `Default`, not the field type's.
    let empty: ContainerDefault = serde_json::from_str("{}").unwrap();
    assert_eq!(empty, ContainerDefault::default());
    let some: ContainerDefault = serde_json::from_str(r#"{"name":"y"}"#).unwrap();
    assert_eq!(
        some,
        ContainerDefault {
            name: "y".into(),
            ..ContainerDefault::default()
        }
    );
    assert!(rejects::<ContainerDefault>("[]"));
}

#[derive(Serialize, Deserialize, Debug, PartialEq)]
struct Newtype(u32);

#[derive(Serialize, Deserialize, Debug, PartialEq)]
#[serde(transparent)]
struct Transparent(Vec<Newtype>);

#[test]
fn newtype_and_transparent() {
    check(&Newtype(5), "5", "5");
    check(
        &Transparent(vec![Newtype(1), Newtype(2)]),
        "[1,2]",
        "[\n  1,\n  2\n]",
    );
    check(&Transparent(vec![]), "[]", "[]");
    assert!(rejects::<Newtype>("[5]"));
    assert!(rejects::<Newtype>("4294967296"));
}

#[derive(Serialize, Deserialize, Debug, PartialEq)]
struct Tuple(u32, String, f64);

#[test]
fn tuple_struct() {
    check(
        &Tuple(1, "a".into(), -0.5),
        r#"[1,"a",-0.5]"#,
        "[\n  1,\n  \"a\",\n  -0.5\n]",
    );
    // Too few elements is an error; extra elements are read past.
    assert!(rejects::<Tuple>(r#"[1,"a"]"#));
    let extra: Tuple = serde_json::from_str(r#"[1,"a",2,{"x":[]}]"#).unwrap();
    assert_eq!(extra, Tuple(1, "a".into(), 2.0));
    assert!(rejects::<Tuple>(r#"[1,"a",2,}"#));
    assert!(rejects::<Tuple>(r#"{"0":1}"#));
}

#[derive(Serialize, Deserialize, Debug, PartialEq)]
struct Unit;

#[test]
fn unit_struct() {
    check(&Unit, "null", "null");
    // A unit struct accepts any well-formed value.
    for text in ["null", "1", "\"x\"", "[1,{\"a\":[]}]", "{}", "true"] {
        assert_eq!(serde_json::from_str::<Unit>(text).unwrap(), Unit, "{text}");
    }
    assert!(rejects::<Unit>("[1,"));
    assert!(rejects::<Unit>(""));
}

#[derive(Serialize, Deserialize, Debug, PartialEq)]
enum Shape {
    Empty,
    Scaled(f64),
    Pair(u32, u32),
    Rect { w: u32, h: Option<u32> },
}

#[test]
fn enum_shapes() {
    check(&Shape::Empty, r#""Empty""#, r#""Empty""#);
    check(
        &Shape::Scaled(1.5),
        r#"{"Scaled":1.5}"#,
        "{\n  \"Scaled\": 1.5\n}",
    );
    check(
        &Shape::Pair(1, 2),
        r#"{"Pair":[1,2]}"#,
        "{\n  \"Pair\": [\n    1,\n    2\n  ]\n}",
    );
    check(
        &Shape::Rect { w: 3, h: None },
        r#"{"Rect":{"w":3,"h":null}}"#,
        "{\n  \"Rect\": {\n    \"w\": 3,\n    \"h\": null\n  }\n}",
    );
    let absent: Shape = serde_json::from_str(r#"{"Rect":{"w":3}}"#).unwrap();
    assert_eq!(absent, Shape::Rect { w: 3, h: None });
    // A unit variant is a string; a data variant an object with one key.
    assert!(rejects::<Shape>(r#"{"Empty":null}"#));
    assert!(rejects::<Shape>(r#""Scaled""#));
    assert!(rejects::<Shape>(r#""Other""#));
    assert!(rejects::<Shape>(r#"{"Other":1}"#));
    assert!(rejects::<Shape>("{}"));
    assert!(rejects::<Shape>(r#"{"Scaled":1,"Scaled":2}"#));
    assert!(rejects::<Shape>(r#"{"Scaled":1,"Pair":[1,2]}"#));
    assert!(rejects::<Shape>(r#"{"Pair":[1]}"#));
    assert!(rejects::<Shape>("1"));
    assert!(rejects::<Shape>("null"));
}

#[derive(Serialize, Deserialize, Debug, PartialEq)]
struct Optional {
    inner: Option<u32>,
    outer: Option<Vec<Option<f64>>>,
}

#[test]
fn options_in_and_out() {
    check(
        &Optional {
            inner: Some(4),
            outer: Some(vec![None, Some(0.5)]),
        },
        r#"{"inner":4,"outer":[null,0.5]}"#,
        "{\n  \"inner\": 4,\n  \"outer\": [\n    null,\n    0.5\n  ]\n}",
    );
    check(
        &Optional {
            inner: None,
            outer: None,
        },
        r#"{"inner":null,"outer":null}"#,
        "{\n  \"inner\": null,\n  \"outer\": null\n}",
    );
    let absent: Optional = serde_json::from_str("{}").unwrap();
    assert_eq!(
        absent,
        Optional {
            inner: None,
            outer: None
        }
    );
    check(&Some(3u8), "3", "3");
    check(&None::<u8>, "null", "null");
    // `null` where a bare float goes reads as NaN; non-finite floats write
    // `null`; finite ones write Rust's shortest round-trip `{}` (no exponent).
    assert!(serde_json::from_str::<f64>("null").unwrap().is_nan());
    assert_eq!(serde_json::to_string(&f64::NAN).unwrap(), "null");
    assert_eq!(
        serde_json::to_string(&vec![f64::INFINITY, -0.0, 1e300, 0.1]).unwrap(),
        format!("[null,-0,1{},0.1]", "0".repeat(300))
    );
}

#[derive(Serialize, Deserialize, Debug, PartialEq)]
struct Empty {}

#[derive(Serialize, Deserialize, Debug, PartialEq)]
struct Holder {
    empty: Empty,
    list: Vec<Empty>,
    nested: Vec<Vec<u32>>,
}

#[test]
fn empty_containers() {
    check(&Empty {}, "{}", "{}");
    check(&Vec::<u32>::new(), "[]", "[]");
    check(
        &Holder {
            empty: Empty {},
            list: vec![Empty {}],
            nested: vec![vec![], vec![1]],
        },
        r#"{"empty":{},"list":[{}],"nested":[[],[1]]}"#,
        "{\n  \"empty\": {},\n  \"list\": [\n    {}\n  ],\n  \"nested\": [\n    [],\n    [\n      1\n    ]\n  ]\n}",
    );
    let spaced: Empty = serde_json::from_str(" { \"zz\" : [ ] } ").unwrap();
    assert_eq!(spaced, Empty {});
    assert!(rejects::<Empty>("[]"));
}

#[test]
fn arrays_need_their_exact_length() {
    check(&[1u8, 2, 3], "[1,2,3]", "[\n  1,\n  2,\n  3\n]");
    assert!(rejects::<[u8; 3]>("[1,2]"));
    assert!(rejects::<[u8; 3]>("[1,2,3,4]"));
    assert!(rejects::<[u8; 3]>("[1,2,256]"));
}

#[test]
fn integers_keep_their_width() {
    check(&u64::MAX, "18446744073709551615", "18446744073709551615");
    check(&i64::MIN, "-9223372036854775808", "-9223372036854775808");
    check(&(-1i8, 255u8), "[-1,255]", "[\n  -1,\n  255\n]");
    assert!(rejects::<u8>("256"));
    assert!(rejects::<i8>("-129"));
    assert!(rejects::<u32>("-1"));
    assert!(rejects::<i64>("9223372036854775808"));
    assert!(rejects::<u64>("18446744073709551616"));
    assert!(rejects::<u32>("1.0"));
    // Any number reads as a float, the integer forms too.
    assert_eq!(
        serde_json::from_str::<f64>("-0").unwrap().to_bits(),
        0.0f64.to_bits()
    );
    assert_eq!(
        serde_json::from_str::<f64>("-0.0").unwrap().to_bits(),
        (-0.0f64).to_bits()
    );
    assert_eq!(serde_json::from_str::<f32>("0.1").unwrap(), 0.1f32);
    assert_eq!(
        serde_json::to_string(&0.1f32).unwrap(),
        "0.10000000149011612"
    );
}
