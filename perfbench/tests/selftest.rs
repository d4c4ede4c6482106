//! Self-tests of the benchmark: `BENCHMARK.json` keeps to the format the
//! runner expects, and a tiny run of every workload, untraced and
//! traced, completes correctly and emits exactly the declared metrics
//! with their declared units.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

/// A parsed JSON value (just enough JSON for these files).
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(m) => m.get(key).unwrap_or_else(|| panic!("missing key {key}")),
            _ => panic!("not an object when looking up {key}"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("expected a string, got {other:?}"),
        }
    }

    fn num(&self) -> f64 {
        match self {
            Json::Num(n) => *n,
            other => panic!("expected a number, got {other:?}"),
        }
    }

    fn arr(&self) -> &[Json] {
        match self {
            Json::Arr(a) => a,
            other => panic!("expected an array, got {other:?}"),
        }
    }

    fn keys(&self) -> Vec<&str> {
        match self {
            Json::Obj(m) => m.keys().map(String::as_str).collect(),
            other => panic!("expected an object, got {other:?}"),
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn parse(text: &str) -> Json {
        let mut p = Parser { s: text.as_bytes(), at: 0 };
        let v = p.value();
        p.ws();
        assert_eq!(p.at, p.s.len(), "trailing input after JSON value");
        v
    }

    fn ws(&mut self) {
        while self.at < self.s.len() && self.s[self.at].is_ascii_whitespace() {
            self.at += 1;
        }
    }

    fn eat(&mut self, c: u8) {
        self.ws();
        assert_eq!(self.s.get(self.at), Some(&c), "expected {:?} at {}", c as char, self.at);
        self.at += 1;
    }

    fn value(&mut self) -> Json {
        self.ws();
        match self.s[self.at] {
            b'{' => {
                self.at += 1;
                let mut m = BTreeMap::new();
                self.ws();
                if self.s[self.at] == b'}' {
                    self.at += 1;
                    return Json::Obj(m);
                }
                loop {
                    self.ws();
                    let Json::Str(k) = self.value() else { panic!("object key must be a string") };
                    self.eat(b':');
                    let v = self.value();
                    assert!(m.insert(k.clone(), v).is_none(), "duplicate key {k}");
                    self.ws();
                    self.at += 1;
                    match self.s[self.at - 1] {
                        b',' => continue,
                        b'}' => return Json::Obj(m),
                        c => panic!("unexpected {:?} in object", c as char),
                    }
                }
            }
            b'[' => {
                self.at += 1;
                let mut a = Vec::new();
                self.ws();
                if self.s[self.at] == b']' {
                    self.at += 1;
                    return Json::Arr(a);
                }
                loop {
                    a.push(self.value());
                    self.ws();
                    self.at += 1;
                    match self.s[self.at - 1] {
                        b',' => continue,
                        b']' => return Json::Arr(a),
                        c => panic!("unexpected {:?} in array", c as char),
                    }
                }
            }
            b'"' => {
                self.at += 1;
                let mut out = String::new();
                loop {
                    let c = self.s[self.at];
                    self.at += 1;
                    match c {
                        b'"' => return Json::Str(out),
                        b'\\' => {
                            let e = self.s[self.at];
                            self.at += 1;
                            out.push(match e {
                                b'n' => '\n',
                                b't' => '\t',
                                other => other as char,
                            });
                        }
                        _ => out.push(c as char),
                    }
                }
            }
            b't' => self.word("true", Json::Bool(true)),
            b'f' => self.word("false", Json::Bool(false)),
            b'n' => self.word("null", Json::Null),
            _ => {
                let start = self.at;
                while self.at < self.s.len() && b"+-0123456789.eE".contains(&self.s[self.at]) {
                    self.at += 1;
                }
                let text = std::str::from_utf8(&self.s[start..self.at]).expect("ascii number");
                Json::Num(text.parse().unwrap_or_else(|_| panic!("bad number {text:?}")))
            }
        }
    }

    fn word(&mut self, w: &str, v: Json) -> Json {
        assert!(self.s[self.at..].starts_with(w.as_bytes()), "expected {w}");
        self.at += w.len();
        v
    }
}

fn benchmark_json() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    Parser::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/"))
}

fn valid_name(n: &str) -> bool {
    n.len() <= 64
        && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && n.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
}

fn valid_unit(u: &str) -> bool {
    !u.is_empty()
        && u.len() <= 16
        && u.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

#[test]
fn benchmark_json_keeps_to_the_format() {
    let b = benchmark_json();
    assert_eq!(
        b.keys(),
        ["command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"]
    );
    let secs = b.get("run_seconds").num();
    assert!(secs.fract() == 0.0 && (1.0..=60.0).contains(&secs));
    assert!((2..=8).contains(&b.get("workloads").arr().len()));
    let mut names = std::collections::BTreeSet::new();
    for w in b.get("workloads").arr() {
        assert_eq!(w.keys(), ["name", "why"]);
        assert!(valid_name(w.get("name").str()) && names.insert(w.get("name").str().to_string()));
        assert!(w.get("why").str().len() <= 200 && !w.get("why").str().contains('\n'));
    }
    for m in b.get("end_to_end").arr() {
        assert_eq!(m.keys(), ["better", "bound", "name", "unit"]);
        assert!(m.get("bound").num() > 0.0 && m.get("bound").num() <= 0.25);
    }
    for m in b.get("per_layer").arr() {
        assert_eq!(m.keys(), ["better", "name", "unit"]);
    }
    for m in b.get("end_to_end").arr().iter().chain(b.get("per_layer").arr()) {
        let name = m.get("name").str();
        assert!(valid_name(name) && names.insert(name.to_string()), "bad or repeated name {name}");
        assert!(valid_unit(m.get("unit").str()), "bad unit for {name}");
        assert!(["higher", "lower"].contains(&m.get("better").str()));
    }
    let setup = b.get("end_to_end").arr().iter().find(|m| m.get("name").str() == "setup_s");
    let setup = setup.expect("setup_s is declared");
    assert_eq!((setup.get("unit").str(), setup.get("better").str()), ("s", "lower"));
    let max_bound =
        b.get("end_to_end").arr().iter().map(|m| m.get("bound").num()).fold(0.0, f64::max);
    assert_eq!(setup.get("bound").num(), max_bound, "setup_s has the largest bound");
}

/// Runs the benchmark binary; returns (exit success, stdout lines).
fn run(args: &[&str]) -> (bool, Vec<String>) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .output()
        .expect("run the benchmark binary");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    (out.status.success(), stdout.lines().map(str::to_string).collect())
}

#[test]
fn a_tiny_run_of_every_workload_emits_every_declared_metric() {
    let b = benchmark_json();
    let mut names: Vec<&str> =
        b.get("workloads").arr().iter().map(|w| w.get("name").str()).collect();
    // Runnable but not declared: too unsteady on hosts that steal CPU
    // time (see README.md).
    names.push("serve-stream");
    for name in names {
        for (trace, declared) in [("0", "end_to_end"), ("1", "per_layer")] {
            let args = [
                "--workload",
                name,
                "--seed",
                "7",
                "--seconds",
                "1",
                "--trace",
                trace,
                "--instrs",
                "4000",
            ];
            let (ok, lines) = run(&args);
            assert!(ok, "{name} --trace {trace} failed");
            let result = Parser::parse(lines.last().expect("a result line"));
            assert_eq!(result.keys(), ["attempted", "correct", "failed", "metrics"]);
            assert_eq!(result.get("correct"), &Json::Bool(true), "{name} --trace {trace}");
            assert_eq!(result.get("failed").num(), 0.0);
            assert!(result.get("attempted").num() >= 1.0);
            let metrics = result.get("metrics");
            let mut want: Vec<&str> =
                b.get(declared).arr().iter().map(|m| m.get("name").str()).collect();
            want.sort_unstable();
            assert_eq!(metrics.keys(), want, "{name} --trace {trace}");
            for m in b.get(declared).arr() {
                let got = metrics.get(m.get("name").str());
                assert_eq!(got.keys(), ["unit", "value"]);
                assert_eq!(got.get("unit").str(), m.get("unit").str());
                assert!(got.get("value").num().is_finite());
            }
        }
    }
}

#[test]
fn bad_arguments_fail_without_a_result() {
    for args in [
        &["--workload", "nope"][..],
        &["--seed", "1"],
        &["--workload", "replay-hot", "--trace", "2"],
    ] {
        let (ok, lines) = run(args);
        assert!(!ok, "{args:?} should fail");
        assert!(lines.is_empty(), "{args:?} printed {lines:?}");
    }
}
