//! The line-delimited JSON wire protocol.
//!
//! One request per line, one JSON object per request, `"op"` selects the
//! operation; the server answers with exactly one JSON object per request
//! (`"ok": true` plus op-specific fields, or `"ok": false` plus
//! `"error"`).  Any request may carry an `"id"` field (any JSON value);
//! it is echoed verbatim in the response.  Because multiple workers answer
//! one connection concurrently, a client that pipelines requests may see
//! responses out of request order — `id` is how it re-correlates them.
//! The vendored `serde_json` round-trips everything here — no crates.io
//! parser involved.
//!
//! | op         | request fields                                           |
//! |------------|----------------------------------------------------------|
//! | `ping`     | —                                                        |
//! | `store`    | `name`, `rows`, `cols`, `entries: [[r,c,v],…]`           |
//! | `gen`      | `name`, `kind: "rmat"\|"er"`, `scale`, `edge_factor`, `seed` |
//! | `load`     | `name`, `path` (under the configured load dir)           |
//! | `multiply` | `a`, `b`, `algorithm?`, `store_as?`, `return?: "entries"`, `ooc_budget_mb?` |
//! | `mcl`      | `name`, `inflation?`, `max_iterations?`                  |
//! | `bc`       | `name`, `sources?`, `batch_size?`                        |
//! | `apsp`     | `name`                                                   |
//! | `evict`    | `name`                                                   |
//! | `list`     | —                                                        |
//! | `metrics`  | —                                                        |
//! | `trace`    | `enable?: bool`                                          |
//! | `shutdown` | —                                                        |
//!
//! Every op additionally accepts `id` (any JSON value, echoed back).

use pb_sparse::Csr;
use pb_spgemm::Algorithm;
use serde::Value;

/// Largest product (in nonzeros) a `return: "entries"` multiply will ship
/// back — verification sampling works on small smoke matrices, and an
/// unbounded reply would let one request monopolise the connection.
pub const MAX_RETURNED_ENTRIES: usize = 1 << 20;

/// A parsed request, one per input line.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Store an explicit matrix under `name`.
    Store {
        /// Catalog name of the new entry.
        name: String,
        /// Row count.
        rows: usize,
        /// Column count.
        cols: usize,
        /// `(row, col, value)` triples.
        entries: Vec<(usize, usize, f64)>,
    },
    /// Generate a synthetic matrix server-side and store it under `name`
    /// (deterministic per seed, so clients can reproduce it locally for
    /// verification).
    Gen {
        /// Catalog name of the new entry.
        name: String,
        /// `"rmat"` (Graph500 R-MAT) or `"er"` (Erdős–Rényi).
        kind: GenKind,
        /// log2 of the dimension.
        scale: u32,
        /// Average nonzeros per row.
        edge_factor: u32,
        /// RNG seed.
        seed: u64,
    },
    /// Load a matrix from disk (any [`pb_gen::MatrixSource`] file: Matrix
    /// Market or PBSM binary) and store it under `name`.  The path must
    /// resolve under the server's configured load directory, and the
    /// estimated size is checked against the memory budget *before* any
    /// allocation — same discipline as `gen`.
    Load {
        /// Catalog name of the new entry.
        name: String,
        /// File path, relative to (or absolute under) the load directory.
        path: String,
    },
    /// Multiply two resident matrices.
    Multiply {
        /// Left operand (catalog name) — its engine runs the product.
        a: String,
        /// Right operand (catalog name).
        b: String,
        /// Per-request algorithm override.
        algorithm: Option<Algorithm>,
        /// Store the product back into the catalog under this name.
        store_as: Option<String>,
        /// Ship the product's entries back (bounded by
        /// [`MAX_RETURNED_ENTRIES`]).
        want_entries: bool,
        /// Run the tiled out-of-core driver with this tile-store budget
        /// (MiB) instead of the resident engine.  OOC multiplies are never
        /// batched: their accumulation order differs from the resident
        /// kernels', so the bit-identity batching guarantee cannot hold
        /// across the two paths.
        ooc_budget_mb: Option<u64>,
    },
    /// Markov clustering of a resident matrix.
    Mcl {
        /// Catalog name.
        name: String,
        /// Inflation exponent.
        inflation: f64,
        /// Iteration cap.
        max_iterations: usize,
    },
    /// Betweenness centrality of a resident matrix.
    Bc {
        /// Catalog name.
        name: String,
        /// Number of BFS sources (`0..sources`); 0 = every vertex.
        sources: usize,
        /// Sources per SpGEMM batch.
        batch_size: usize,
    },
    /// Min-plus all-pairs shortest paths of a resident matrix.
    Apsp {
        /// Catalog name.
        name: String,
    },
    /// Drop a catalog entry.
    Evict {
        /// Catalog name.
        name: String,
    },
    /// Enumerate the catalog.
    List,
    /// Render the telemetry text endpoint.
    Metrics,
    /// Snapshot the process trace as Chrome trace-event JSON, optionally
    /// toggling the tracer first.
    Trace {
        /// `Some(true)`/`Some(false)` flips the tracer before snapshotting;
        /// `None` leaves it as configured (`PB_TRACE`).
        enable: Option<bool>,
    },
    /// Stop the server.
    Shutdown,
}

/// Synthetic generator kinds the `gen` op accepts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GenKind {
    /// Graph500 R-MAT (skewed degrees).
    Rmat,
    /// Erdős–Rényi (uniform degrees).
    Er,
}

impl Request {
    /// The wire name of this request's op — the `op` label on the server's
    /// per-op latency histograms, so every label value is a fixed, known
    /// string (never client-controlled text).
    pub fn op_name(&self) -> &'static str {
        match self {
            Request::Ping => "ping",
            Request::Store { .. } => "store",
            Request::Gen { .. } => "gen",
            Request::Load { .. } => "load",
            Request::Multiply { .. } => "multiply",
            Request::Mcl { .. } => "mcl",
            Request::Bc { .. } => "bc",
            Request::Apsp { .. } => "apsp",
            Request::Evict { .. } => "evict",
            Request::List => "list",
            Request::Metrics => "metrics",
            Request::Trace { .. } => "trace",
            Request::Shutdown => "shutdown",
        }
    }

    /// Batching identity of a multiply: requests with equal keys produce
    /// bit-identical products, so the dispatcher computes them once under a
    /// single workspace lease.  `None` for every other op.
    pub fn batch_key(&self) -> Option<(String, String, &'static str)> {
        match self {
            // OOC multiplies are excluded: the tiled accumulation order is
            // deterministic but differs from the resident kernels', so a
            // tiled and a resident request for the same operands would not
            // be bit-identical.
            Request::Multiply {
                ooc_budget_mb: Some(_),
                ..
            } => None,
            Request::Multiply {
                a, b, algorithm, ..
            } => Some((
                a.clone(),
                b.clone(),
                algorithm.map(|alg| alg.name()).unwrap_or("default"),
            )),
            _ => None,
        }
    }
}

fn str_field(v: &Value, key: &str) -> Result<String, String> {
    v.get(key)
        .and_then(Value::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing or non-string field `{key}`"))
}

fn uint_field(v: &Value, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(Value::as_u64)
        .ok_or_else(|| format!("missing or non-integer field `{key}`"))
}

fn uint_field_or(v: &Value, key: &str, default: u64) -> Result<u64, String> {
    match v.get(key) {
        None => Ok(default),
        Some(f) => f
            .as_u64()
            .ok_or_else(|| format!("non-integer field `{key}`")),
    }
}

fn float_field_or(v: &Value, key: &str, default: f64) -> Result<f64, String> {
    match v.get(key) {
        None => Ok(default),
        Some(f) => f
            .as_f64()
            .ok_or_else(|| format!("non-number field `{key}`")),
    }
}

/// One parsed protocol line: the request (or the error string to answer
/// with) plus the client's optional correlation `id`, recovered whenever
/// the line was at least valid JSON.
#[derive(Debug, Clone, PartialEq)]
pub struct Parsed {
    /// The `id` field of the request object, if present — echoed verbatim
    /// in the response so pipelined clients can match out-of-order
    /// responses to requests.
    pub id: Option<Value>,
    /// The parsed request, or the error string to send back.
    pub request: Result<Request, String>,
}

/// Parses one protocol line, preserving the correlation `id` even when the
/// request itself is rejected (so the error response still correlates).
pub fn parse_line(line: &str) -> Parsed {
    match serde_json::from_str(line) {
        Err(e) => Parsed {
            id: None,
            request: Err(format!("malformed JSON: {e}")),
        },
        Ok(v) => Parsed {
            id: v.get("id").cloned(),
            request: request_of(&v),
        },
    }
}

/// Parses one protocol line into a [`Request`]; the error string is sent
/// back verbatim in the `error` field.
pub fn parse_request(line: &str) -> Result<Request, String> {
    parse_line(line).request
}

fn request_of(v: &Value) -> Result<Request, String> {
    let op = str_field(v, "op")?;
    match op.as_str() {
        "ping" => Ok(Request::Ping),
        "store" => {
            let name = str_field(v, "name")?;
            let rows = uint_field(v, "rows")? as usize;
            let cols = uint_field(v, "cols")? as usize;
            let raw = v
                .get("entries")
                .and_then(Value::as_array)
                .ok_or("missing or non-array field `entries`")?;
            let mut entries = Vec::with_capacity(raw.len());
            for e in raw {
                let triple = e
                    .as_array()
                    .filter(|t| t.len() == 3)
                    .ok_or("each entry must be a [row, col, value] triple")?;
                let r = triple[0].as_u64().ok_or("entry row must be an integer")? as usize;
                let c = triple[1].as_u64().ok_or("entry col must be an integer")? as usize;
                let val = triple[2].as_f64().ok_or("entry value must be a number")?;
                entries.push((r, c, val));
            }
            Ok(Request::Store {
                name,
                rows,
                cols,
                entries,
            })
        }
        "gen" => {
            let kind = match str_field(v, "kind")?.as_str() {
                "rmat" => GenKind::Rmat,
                "er" => GenKind::Er,
                other => return Err(format!("unknown generator kind `{other}` (rmat|er)")),
            };
            Ok(Request::Gen {
                name: str_field(v, "name")?,
                kind,
                scale: uint_field(v, "scale")? as u32,
                edge_factor: uint_field_or(v, "edge_factor", 8)? as u32,
                seed: uint_field_or(v, "seed", 1)?,
            })
        }
        "load" => Ok(Request::Load {
            name: str_field(v, "name")?,
            path: str_field(v, "path")?,
        }),
        "multiply" => {
            let algorithm = match v.get("algorithm").and_then(Value::as_str) {
                None => None,
                Some(name) => Some(
                    Algorithm::parse(name)
                        .ok_or_else(|| format!("unrecognised algorithm `{name}`"))?,
                ),
            };
            let want_entries = match v.get("return").and_then(Value::as_str) {
                None | Some("summary") => false,
                Some("entries") => true,
                Some(other) => return Err(format!("unknown return mode `{other}`")),
            };
            let ooc_budget_mb = match v.get("ooc_budget_mb") {
                None => None,
                Some(f) => {
                    let mb = f.as_u64().ok_or("non-integer field `ooc_budget_mb`")?;
                    if mb == 0 {
                        return Err("`ooc_budget_mb` must be positive".into());
                    }
                    Some(mb)
                }
            };
            Ok(Request::Multiply {
                a: str_field(v, "a")?,
                b: str_field(v, "b")?,
                algorithm,
                store_as: v
                    .get("store_as")
                    .and_then(Value::as_str)
                    .map(str::to_string),
                want_entries,
                ooc_budget_mb,
            })
        }
        "mcl" => Ok(Request::Mcl {
            name: str_field(v, "name")?,
            inflation: float_field_or(v, "inflation", 2.0)?,
            max_iterations: uint_field_or(v, "max_iterations", 60)? as usize,
        }),
        "bc" => Ok(Request::Bc {
            name: str_field(v, "name")?,
            sources: uint_field_or(v, "sources", 0)? as usize,
            batch_size: uint_field_or(v, "batch_size", 32)?.max(1) as usize,
        }),
        "apsp" => Ok(Request::Apsp {
            name: str_field(v, "name")?,
        }),
        "evict" => Ok(Request::Evict {
            name: str_field(v, "name")?,
        }),
        "list" => Ok(Request::List),
        "metrics" => Ok(Request::Metrics),
        "trace" => {
            let enable = match v.get("enable") {
                None => None,
                Some(b) => Some(b.as_bool().ok_or("non-boolean field `enable`")?),
            };
            Ok(Request::Trace { enable })
        }
        "shutdown" => Ok(Request::Shutdown),
        other => Err(format!("unknown op `{other}`")),
    }
}

/// Builds a JSON object [`Value`] from key/value pairs (field order kept).
pub fn object(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Serialises a success response: `{"ok": true, …fields}` as one line,
/// echoing the request's correlation `id` when it carried one.
pub fn ok_line(mut fields: Vec<(&str, Value)>, id: Option<&Value>) -> String {
    fields.insert(0, ("ok", Value::Bool(true)));
    if let Some(id) = id {
        fields.push(("id", id.clone()));
    }
    serde_json::to_string(&object(fields)).expect("response serialisation cannot fail")
}

/// Serialises an error response: `{"ok": false, "error": msg}` as one
/// line, echoing the request's correlation `id` when it carried one.
pub fn error_line(msg: &str, id: Option<&Value>) -> String {
    let mut fields = vec![
        ("ok", Value::Bool(false)),
        ("error", Value::Str(msg.to_string())),
    ];
    if let Some(id) = id {
        fields.push(("id", id.clone()));
    }
    serde_json::to_string(&object(fields)).expect("response serialisation cannot fail")
}

/// Order-sensitive fingerprint of a CSR matrix, one 8-byte word per step.
/// Starting from `h = 0xcbf2_9ce4_8422_2325`, each word `w` — `nrows`,
/// `ncols`, the row pointers, the column indices, then the value bit
/// patterns — sets `h = (h ^ w) · 0x0000_0100_0000_01b3` (wrapping), then
/// rotates `h` left by 29 bits.  Every step is a bijection of `h`, so
/// changing any one word changes the result; bit-identical products — the
/// batching guarantee — have equal fingerprints.  `docs/API.md` publishes
/// the same definition.
pub fn fingerprint(m: &Csr<f64>) -> u64 {
    const SEED: u64 = 0xcbf2_9ce4_8422_2325;
    const MULTIPLIER: u64 = 0x0000_0100_0000_01b3;
    let mut h = SEED;
    let mut mix = |w: u64| h = (h ^ w).wrapping_mul(MULTIPLIER).rotate_left(29);
    mix(m.nrows() as u64);
    mix(m.ncols() as u64);
    for &p in m.rowptr() {
        mix(p as u64);
    }
    for &c in m.colidx() {
        mix(u64::from(c));
    }
    for &v in m.values() {
        mix(v.to_bits());
    }
    h
}

/// Serialises a small matrix as `[[r, c, v], …]` for `return: "entries"`.
pub fn entries_value(m: &Csr<f64>) -> Value {
    Value::Array(
        m.iter()
            .map(|(r, c, v)| {
                Value::Array(vec![
                    Value::UInt(u64::from(r)),
                    Value::UInt(u64::from(c)),
                    Value::Float(v),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_op() {
        assert_eq!(parse_request(r#"{"op":"ping"}"#), Ok(Request::Ping));
        assert_eq!(parse_request(r#"{"op":"list"}"#), Ok(Request::List));
        assert_eq!(parse_request(r#"{"op":"metrics"}"#), Ok(Request::Metrics));
        assert_eq!(
            parse_request(r#"{"op":"trace"}"#),
            Ok(Request::Trace { enable: None })
        );
        assert_eq!(
            parse_request(r#"{"op":"trace","enable":true}"#),
            Ok(Request::Trace { enable: Some(true) })
        );
        assert_eq!(parse_request(r#"{"op":"shutdown"}"#), Ok(Request::Shutdown));
        assert_eq!(
            parse_request(r#"{"op":"store","name":"a","rows":2,"cols":2,"entries":[[0,1,2.5]]}"#),
            Ok(Request::Store {
                name: "a".into(),
                rows: 2,
                cols: 2,
                entries: vec![(0, 1, 2.5)],
            })
        );
        assert_eq!(
            parse_request(r#"{"op":"gen","name":"g","kind":"rmat","scale":6}"#),
            Ok(Request::Gen {
                name: "g".into(),
                kind: GenKind::Rmat,
                scale: 6,
                edge_factor: 8,
                seed: 1,
            })
        );
        assert_eq!(
            parse_request(r#"{"op":"multiply","a":"x","b":"y","algorithm":"pb"}"#),
            Ok(Request::Multiply {
                a: "x".into(),
                b: "y".into(),
                algorithm: Some(Algorithm::Pb),
                store_as: None,
                want_entries: false,
                ooc_budget_mb: None,
            })
        );
        assert_eq!(
            parse_request(r#"{"op":"load","name":"a","path":"a.pbsm"}"#),
            Ok(Request::Load {
                name: "a".into(),
                path: "a.pbsm".into(),
            })
        );
        assert_eq!(
            parse_request(r#"{"op":"multiply","a":"x","b":"y","ooc_budget_mb":64}"#),
            Ok(Request::Multiply {
                a: "x".into(),
                b: "y".into(),
                algorithm: None,
                store_as: None,
                want_entries: false,
                ooc_budget_mb: Some(64),
            })
        );
        assert_eq!(
            parse_request(r#"{"op":"mcl","name":"g","inflation":1.5}"#),
            Ok(Request::Mcl {
                name: "g".into(),
                inflation: 1.5,
                max_iterations: 60,
            })
        );
        assert_eq!(
            parse_request(r#"{"op":"bc","name":"g","sources":4,"batch_size":2}"#),
            Ok(Request::Bc {
                name: "g".into(),
                sources: 4,
                batch_size: 2,
            })
        );
        assert_eq!(
            parse_request(r#"{"op":"apsp","name":"g"}"#),
            Ok(Request::Apsp { name: "g".into() })
        );
        assert_eq!(
            parse_request(r#"{"op":"evict","name":"g"}"#),
            Ok(Request::Evict { name: "g".into() })
        );
    }

    #[test]
    fn rejects_malformed_requests() {
        assert!(parse_request("not json").is_err());
        assert!(parse_request(r#"{"op":"fly"}"#)
            .unwrap_err()
            .contains("unknown op"));
        assert!(parse_request(r#"{"op":"multiply","a":"x"}"#)
            .unwrap_err()
            .contains("`b`"));
        assert!(
            parse_request(r#"{"op":"multiply","a":"x","b":"y","algorithm":"quantum"}"#)
                .unwrap_err()
                .contains("unrecognised algorithm")
        );
        assert!(
            parse_request(r#"{"op":"store","name":"a","rows":2,"cols":2,"entries":[[0,1]]}"#)
                .is_err()
        );
        assert!(parse_request(r#"{"op":"trace","enable":"yes"}"#)
            .unwrap_err()
            .contains("`enable`"));
        assert!(parse_request(r#"{"op":"load","name":"a"}"#)
            .unwrap_err()
            .contains("`path`"));
        assert!(
            parse_request(r#"{"op":"multiply","a":"x","b":"y","ooc_budget_mb":0}"#)
                .unwrap_err()
                .contains("ooc_budget_mb")
        );
        assert!(
            parse_request(r#"{"op":"multiply","a":"x","b":"y","ooc_budget_mb":"big"}"#)
                .unwrap_err()
                .contains("ooc_budget_mb")
        );
    }

    #[test]
    fn every_op_has_a_wire_name() {
        for (line, name) in [
            (r#"{"op":"ping"}"#, "ping"),
            (r#"{"op":"list"}"#, "list"),
            (r#"{"op":"metrics"}"#, "metrics"),
            (r#"{"op":"trace"}"#, "trace"),
            (r#"{"op":"shutdown"}"#, "shutdown"),
            (r#"{"op":"apsp","name":"g"}"#, "apsp"),
            (r#"{"op":"evict","name":"g"}"#, "evict"),
            (r#"{"op":"multiply","a":"x","b":"y"}"#, "multiply"),
            (r#"{"op":"load","name":"a","path":"a.pbsm"}"#, "load"),
        ] {
            assert_eq!(parse_request(line).unwrap().op_name(), name);
        }
    }

    #[test]
    fn batch_keys_identify_identical_products() {
        let a = parse_request(r#"{"op":"multiply","a":"x","b":"y"}"#).unwrap();
        let b = parse_request(r#"{"op":"multiply","a":"x","b":"y","return":"entries"}"#).unwrap();
        let c = parse_request(r#"{"op":"multiply","a":"x","b":"z"}"#).unwrap();
        assert_eq!(a.batch_key(), b.batch_key());
        assert_ne!(a.batch_key(), c.batch_key());
        assert_eq!(parse_request(r#"{"op":"ping"}"#).unwrap().batch_key(), None);
        // OOC multiplies never batch: a tiled product is not bit-identical
        // to a resident one.
        let ooc = parse_request(r#"{"op":"multiply","a":"x","b":"y","ooc_budget_mb":8}"#).unwrap();
        assert_eq!(ooc.batch_key(), None);
    }

    #[test]
    fn response_lines_round_trip() {
        let line = ok_line(vec![("nnz", Value::UInt(7))], None);
        let v = serde_json::from_str(&line).unwrap();
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true));
        assert_eq!(v.get("nnz").and_then(Value::as_u64), Some(7));
        assert!(v.get("id").is_none());
        let e = error_line("boom", None);
        let v = serde_json::from_str(&e).unwrap();
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(false));
        assert_eq!(v.get("error").and_then(Value::as_str), Some("boom"));
    }

    #[test]
    fn correlation_ids_survive_parsing_and_serialisation() {
        // Present on a good request.
        let parsed = parse_line(r#"{"op":"ping","id":42}"#);
        assert_eq!(parsed.id, Some(Value::UInt(42)));
        assert_eq!(parsed.request, Ok(Request::Ping));
        // Present on a bad request that is still valid JSON, so the error
        // response can correlate.
        let parsed = parse_line(r#"{"op":"fly","id":"r1"}"#);
        assert_eq!(parsed.id, Some(Value::Str("r1".into())));
        assert!(parsed.request.is_err());
        // Absent when the line is not JSON at all.
        let parsed = parse_line("not json");
        assert_eq!(parsed.id, None);
        assert!(parsed.request.is_err());
        // Echoed on both response kinds.
        let id = Value::Str("r1".into());
        let v = serde_json::from_str(&ok_line(vec![], Some(&id))).unwrap();
        assert_eq!(v.get("id").and_then(Value::as_str), Some("r1"));
        let v = serde_json::from_str(&error_line("boom", Some(&id))).unwrap();
        assert_eq!(v.get("id").and_then(Value::as_str), Some("r1"));
    }

    #[test]
    fn fingerprint_distinguishes_matrices() {
        use pb_sparse::Coo;
        let csr = |rows, cols, entries| Coo::from_entries(rows, cols, entries).unwrap().to_csr();
        let a = csr(3, 4, vec![(0, 1, 1.5), (0, 3, -2.0), (2, 0, 0.25)]);
        // Pinned to the docs/API.md formula, evaluated outside the crate.
        assert_eq!(fingerprint(&a), 0xdc3a_96d4_1273_124f);

        let flipped = f64::from_bits(1.5f64.to_bits() ^ 1);
        let one_value_bit = csr(3, 4, vec![(0, 1, flipped), (0, 3, -2.0), (2, 0, 0.25)]);
        let one_column = csr(3, 4, vec![(0, 1, 1.5), (0, 2, -2.0), (2, 0, 0.25)]);
        let extra_empty_row = csr(4, 4, vec![(0, 1, 1.5), (0, 3, -2.0), (2, 0, 0.25)]);
        let square = csr(3, 3, vec![(0, 1, 1.5), (0, 2, -2.0), (2, 0, 0.25)]);
        let transposed = square.transpose();
        assert_ne!(square.colidx(), transposed.colidx());
        for (what, other, base) in [
            ("one value bit", &one_value_bit, &a),
            ("one column index", &one_column, &a),
            ("one extra empty row", &extra_empty_row, &a),
            ("transposition", &transposed, &square),
        ] {
            assert_ne!(fingerprint(other), fingerprint(base), "{what}");
        }
    }
}
