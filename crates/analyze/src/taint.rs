//! Pass 3 — adversarial-input taint audit.
//!
//! PR 8 moved the fronthaul onto a real wire, so the receive path now
//! begins at **untrusted bytes**: anything a peer (or an attacker who
//! can spoof datagrams) puts on the network reaches `decode_hello`,
//! `parse_iq`, `RxSession::ingest_frame` and the TCP length-framed
//! reader before any other code sees it. This pass declares those
//! functions *untrusted-byte sources* and BFS-walks the call graph from
//! them, proving every reachable function is safe to run on attacker
//! input:
//!
//! * **`taint-panic`** — no `unwrap`/`expect`/`assert!`/`panic!`-family
//!   (same patterns as the purity pass). A panic on the io thread is a
//!   remote denial of service.
//! * **`taint-index`** — no unchecked indexing or slicing (`buf[i]`,
//!   `&buf[a..b]`): the one panic source the purity pass deliberately
//!   does not pattern-match (DESIGN.md §8) but which dominates real
//!   parser CVEs. Parsers must use `get(..)`/fixed-size reads, or carry
//!   a reasoned suppression stating the bound.
//! * **`taint-arith`** — no bare `+`/`-`/`*`/`<<` on lines mentioning
//!   length/seq/fragment-typed values unless the line uses
//!   `wrapping_*`/`checked_*`/`saturating_*`: in release builds these
//!   wrap silently and become the out-of-bounds offset one line later.
//! * **`taint-alloc`** — no allocation (purity's patterns): attacker
//!   bytes must not size heap requests on the per-frame path. Session-
//!   setup parsers (`decode_hello`, `negotiate`, `accept`) allow it —
//!   building the owned `StreamParams` is their job — but only behind
//!   the geometry caps (`wire::validate_geometry`).
//! * **`taint-loop`** — no `loop`/`while` whose trip count the input
//!   could control. `for` over slices is bounded by construction and
//!   stays legal; every surviving `while` must carry a suppression
//!   naming its bound (the service loops in `accept`/`start` are
//!   audited under masks that permit them).
//!
//! The BFS is scoped to the transport crates ([`SCOPE`]): a call that
//! resolves outside them crosses the trust boundary — by then the bytes
//! have been validated into typed, geometry-checked structures — and is
//! not descended into, though the *call-site line* is still scanned, so
//! an allocating or panicking adapter on the tainted line is caught
//! regardless of where the callee lives (same soundness argument as the
//! purity pass's handling of unresolved std calls).
//!
//! Suppressions use the shared syntax with the class name, e.g.
//! `// analyze: allow(taint-index): n <= scratch.len() checked above`.

use std::collections::{HashMap, VecDeque};

use crate::graph::{FnId, Workspace};
use crate::purity::{hit, suppression, ALLOC_PATTERNS, PANIC_PATTERNS};
use crate::Violation;

/// Taint effect classes as a bitmask.
pub mod tclass {
    pub const PANIC: u8 = 1 << 0;
    pub const INDEX: u8 = 1 << 1;
    pub const ARITH: u8 = 1 << 2;
    pub const ALLOC: u8 = 1 << 3;
    pub const LOOP: u8 = 1 << 4;
    pub const ALL: u8 = PANIC | INDEX | ARITH | ALLOC | LOOP;
}

/// Suppression/display name of each class bit.
pub fn class_name(bit: u8) -> &'static str {
    match bit {
        tclass::PANIC => "taint-panic",
        tclass::INDEX => "taint-index",
        tclass::ARITH => "taint-arith",
        tclass::ALLOC => "taint-alloc",
        tclass::LOOP => "taint-loop",
        _ => "taint",
    }
}

/// One untrusted-byte source and the classes denied along every path
/// reachable from it.
#[derive(Debug, Clone, Copy)]
pub struct Source {
    /// `impl` type qualifier, if the source is a method.
    pub type_qual: Option<&'static str>,
    /// Fn name.
    pub name: &'static str,
    /// Denied classes ([`tclass`] bits).
    pub deny: u8,
    /// Why this source has this mask — printed in reports.
    pub why: &'static str,
}

/// Per-frame parsers: everything is denied.
const FRAME: u8 = tclass::ALL;
/// Session-setup parsers: run once per connection, build owned params
/// behind the geometry caps — allocation is their job; panics, raw
/// indexing, unchecked arithmetic and input-driven loops still are not.
const SETUP: u8 = tclass::ALL & !tclass::ALLOC;
/// Service entry points (`accept`/`start`/io threads): additionally the
/// io loop runs forever by design, so `loop` is legal; the per-frame
/// work they dispatch to is audited under the stricter masks above.
const SERVICE: u8 = SETUP & !tclass::LOOP;

/// The declared untrusted-byte sources of the workspace: every function
/// a network peer's bytes reach before any validation has happened.
pub const SOURCES: &[Source] = &[
    // — wire.rs: frame codecs, the first code to touch raw bytes. —
    Source {
        type_qual: None,
        name: "decode_hello",
        deny: SETUP,
        why: "parses the first bytes a new peer sends; builds owned StreamParams behind validate_geometry",
    },
    Source {
        type_qual: None,
        name: "decode_hello_ack",
        deny: FRAME,
        why: "parses the worker's 4-byte ack on the aggregator",
    },
    Source {
        type_qual: None,
        name: "check_version",
        deny: FRAME,
        why: "version gate on attacker-announced version field",
    },
    Source {
        type_qual: None,
        name: "parse_iq",
        deny: FRAME,
        why: "per-frame IQ parse on the io thread's 1 ms path",
    },
    Source {
        type_qual: None,
        name: "dequantize_payload",
        deny: FRAME,
        why: "payload decode into preallocated sample buffers",
    },
    // — packet.rs: header codec and sequence tracking. —
    Source {
        type_qual: Some("PacketHeader"),
        name: "read_from",
        deny: FRAME,
        why: "12-byte header decode of untrusted frame bytes",
    },
    Source {
        type_qual: None,
        name: "seq_delta",
        deny: FRAME,
        why: "wrap-aware distance on attacker-controlled seq fields",
    },
    Source {
        type_qual: Some("SeqTracker"),
        name: "observe",
        deny: FRAME,
        why: "per-frame cursor advance driven by the wire seq",
    },
    Source {
        type_qual: Some("SeqTracker"),
        name: "prime",
        deny: FRAME,
        why: "first-frame cursor lock driven by the wire seq",
    },
    Source {
        type_qual: Some("SeqTracker"),
        name: "is_stale",
        deny: FRAME,
        why: "staleness probe on the wire seq",
    },
    // — session.rs: the reassembly state machine. —
    Source {
        type_qual: Some("RxSession"),
        name: "ingest_frame",
        deny: FRAME,
        why: "per-frame ingest: validate, seq-track, assemble, publish",
    },
    Source {
        type_qual: Some("RxSession"),
        name: "on_resync",
        deny: FRAME,
        why: "peer-triggered resync (reconnect / hello replay)",
    },
    Source {
        type_qual: Some("StreamParams"),
        name: "local_cell",
        deny: FRAME,
        why: "maps the wire bs_id to a local index on every frame",
    },
    // — framing.rs/tcp.rs/udp.rs: the socket-facing recv paths. —
    Source {
        type_qual: None,
        name: "read_full",
        deny: FRAME,
        why: "fills a fixed buffer from the socket; loop bound is buf.len()",
    },
    Source {
        type_qual: None,
        name: "read_frame",
        deny: FRAME,
        why: "length-framed TCP reassembly from an attacker-paced stream",
    },
    Source {
        type_qual: None,
        name: "dispatch_train",
        deny: FRAME,
        why: "walks one GRO-coalesced UDP receive datagram by datagram into ingest_frame",
    },
    Source {
        type_qual: None,
        name: "negotiate",
        deny: SERVICE,
        why: "TCP hello/ack exchange; retries until stop, so the loop is a service loop",
    },
    Source {
        type_qual: Some("UdpRxPending"),
        name: "accept",
        deny: SERVICE,
        why: "UDP session acceptor + io thread; setup allocation and the forever io loop are its design",
    },
    Source {
        type_qual: Some("TcpRxPending"),
        name: "accept",
        deny: SERVICE,
        why: "TCP session acceptor; blocks for a valid hello then starts the io thread",
    },
    Source {
        type_qual: None,
        name: "tcp_io_loop",
        deny: SERVICE,
        why: "TCP io thread: read_frame/ingest/reconnect loop",
    },
    Source {
        type_qual: None,
        name: "udp_io_loop",
        deny: SERVICE,
        why: "UDP io thread: recv/dispatch loop",
    },
];

/// Trust boundary: the BFS only descends into functions whose file path
/// starts with one of these prefixes. Everything else receives typed,
/// validated data (or is a tooling/test crate) and is covered by the
/// purity pass's hot-path seeds instead. An empty scope (fixtures)
/// disables the filter.
pub const SCOPE: &[&str] = &["crates/transport/src", "crates/transport-net/src"];

/// Arithmetic operators that wrap silently in release builds.
const ARITH_OPS: &[&str] = &[" + ", " - ", " * ", " << ", " += ", " -= ", " *= ", " <<= "];

/// Length/seq/fragment-typed identifiers: arithmetic on a line naming
/// one of these is flagged unless the line is explicitly checked.
const TAINTED_IDENTS: &[&str] = &[
    "len",
    "count",
    "off",
    "offset",
    "seq",
    "fragment",
    "frag",
    "frags",
    "total_fragments",
    "payload_len",
    "n_cells",
    "n_mcs",
    "samples",
    "antennas",
    "subframe",
    "remaining",
    "need",
];

/// Markers that make arithmetic on a line explicitly checked.
const CHECKED_MARKS: &[&str] = &[
    "wrapping_",
    "checked_",
    "saturating_",
    "overflowing_",
    "debug_assert",
];

/// Token match with both-side identifier guards (`len` must not match
/// inside `length` or `self.wlen`).
fn has_token(code: &str, tok: &str) -> bool {
    let mut from = 0;
    while let Some(pos) = code[from..].find(tok) {
        let start = from + pos;
        let end = start + tok.len();
        let pre = code[..start].chars().next_back();
        let post = code[end..].chars().next();
        let pre_ident = pre.is_some_and(|c| c.is_alphanumeric() || c == '_');
        let post_ident = post.is_some_and(|c| c.is_alphanumeric() || c == '_');
        if !pre_ident && !post_ident {
            return true;
        }
        from = end;
    }
    false
}

/// Detects an index/slice expression: a `[` directly preceded by an
/// identifier character, `)`, or `]`. Attribute (`#[...]`), macro
/// (`vec![`), array-literal (`= [`), and type (`&[u8]`) brackets are
/// all preceded by non-identifier characters and stay legal.
fn has_index_expr(code: &str) -> bool {
    let mut prev = ' ';
    for c in code.chars() {
        if c == '[' && (prev.is_alphanumeric() || prev == '_' || prev == ')' || prev == ']') {
            return true;
        }
        prev = c;
    }
    false
}

/// Detects unchecked arithmetic on a tainted-named value.
fn has_tainted_arith(code: &str) -> Option<&'static str> {
    if CHECKED_MARKS.iter().any(|m| code.contains(m)) {
        return None;
    }
    let op = ARITH_OPS.iter().find(|op| code.contains(*op))?;
    TAINTED_IDENTS
        .iter()
        .any(|id| has_token(code, id))
        .then_some(op)
}

/// Detects a `loop`/`while` header (input-drivable trip count).
fn has_loop_header(code: &str) -> bool {
    let t = code.trim_start();
    t.starts_with("loop") && t[4..].trim_start().starts_with('{')
        || t == "loop"
        || t.starts_with("while ")
        || t.starts_with("while(")
        || t.starts_with("while\t")
}

/// First denied pattern hit on a line, with the pattern for the report.
fn scan_line(code: &str, deny: u8) -> Option<(u8, String)> {
    if deny & tclass::PANIC != 0 {
        if let Some(p) = PANIC_PATTERNS.iter().find(|p| hit(code, p)) {
            return Some((tclass::PANIC, format!("`{p}`")));
        }
    }
    if deny & tclass::INDEX != 0 && has_index_expr(code) {
        return Some((tclass::INDEX, "unchecked index/slice".to_string()));
    }
    if deny & tclass::ARITH != 0 {
        if let Some(op) = has_tainted_arith(code) {
            return Some((
                tclass::ARITH,
                format!("unchecked `{}` on a length/seq-typed value", op.trim()),
            ));
        }
    }
    if deny & tclass::ALLOC != 0 {
        if let Some(p) = ALLOC_PATTERNS.iter().find(|p| hit(code, p)) {
            return Some((tclass::ALLOC, format!("`{p}`")));
        }
    }
    if deny & tclass::LOOP != 0 && has_loop_header(code) {
        return Some((
            tclass::LOOP,
            "`loop`/`while` on input-driven path".to_string(),
        ));
    }
    None
}

/// Runs the taint pass with the default [`SOURCES`] and [`SCOPE`].
pub fn run(ws: &Workspace) -> Vec<Violation> {
    run_with(ws, SOURCES, SCOPE)
}

/// Runs the taint pass with explicit sources and scope (fixture tests
/// pass an empty scope to disable the trust-boundary filter).
pub fn run_with(ws: &Workspace, sources: &[Source], scope: &[&str]) -> Vec<Violation> {
    let mut out = Vec::new();

    let mut source_roots: HashMap<FnId, usize> = HashMap::new();
    let mut roots_of: Vec<Vec<FnId>> = Vec::with_capacity(sources.len());
    for (si, src) in sources.iter().enumerate() {
        let ids = ws.find_fns(src.type_qual, src.name);
        if ids.is_empty() {
            out.push(Violation {
                file: String::new(),
                line: 0,
                pass: "taint",
                class: "source-missing",
                msg: format!(
                    "untrusted-byte source `{}` not found in the workspace — update the source table in crates/analyze/src/taint.rs",
                    source_label(src)
                ),
            });
        }
        for &id in &ids {
            source_roots.entry(id).or_insert(si);
        }
        roots_of.push(ids);
    }

    for (si, src) in sources.iter().enumerate() {
        for &root in &roots_of[si] {
            audit_source(ws, src, root, &source_roots, si, scope, &mut out);
        }
    }
    out.sort_by(|a, b| (&a.file, a.line, &a.msg).cmp(&(&b.file, b.line, &b.msg)));
    out.dedup_by(|a, b| {
        a.file == b.file
            && a.line == b.line
            && a.class == b.class
            && (a.line != 0 || a.msg == b.msg)
    });
    out
}

fn source_label(src: &Source) -> String {
    match src.type_qual {
        Some(t) => format!("{}::{}", t, src.name),
        None => src.name.to_string(),
    }
}

fn in_scope(ws: &Workspace, id: FnId, scope: &[&str]) -> bool {
    if scope.is_empty() {
        return true;
    }
    let path = &ws.files[ws.fns[id].file].path;
    scope.iter().any(|p| path.starts_with(p))
}

fn audit_source(
    ws: &Workspace,
    src: &Source,
    root: FnId,
    source_roots: &HashMap<FnId, usize>,
    source_idx: usize,
    scope: &[&str],
    out: &mut Vec<Violation>,
) {
    // BFS with parent tracking for witness chains; identical discipline
    // to the purity pass (per-edge suppressions, source shadowing), plus
    // the trust-boundary scope filter.
    let mut parent: HashMap<FnId, FnId> = HashMap::new();
    let mut queue: VecDeque<FnId> = VecDeque::new();
    parent.insert(root, root);
    queue.push_back(root);

    while let Some(id) = queue.pop_front() {
        scan_fn(ws, src, root, id, &parent, out);
        for &ci in &ws.calls_by_fn[id] {
            let call = &ws.calls[ci];
            let file_lines = &ws.files[ws.fns[id].file].lines;
            if suppression(file_lines, call.line, &format!("call:{}", call.name)).is_some() {
                continue;
            }
            for &callee in &call.resolved {
                if ws.fns[callee].is_test
                    || parent.contains_key(&callee)
                    || !in_scope(ws, callee, scope)
                {
                    continue;
                }
                if let Some(&other) = source_roots.get(&callee) {
                    if other != source_idx {
                        continue;
                    }
                }
                parent.insert(callee, id);
                queue.push_back(callee);
            }
        }
    }
}

fn scan_fn(
    ws: &Workspace,
    src: &Source,
    root: FnId,
    id: FnId,
    parent: &HashMap<FnId, FnId>,
    out: &mut Vec<Violation>,
) {
    let f = &ws.fns[id];
    let file = &ws.files[f.file];
    for line in ws.body_lines(id) {
        let mut deny = src.deny;
        while deny != 0 {
            let Some((bit, what)) = scan_line(&line.code, deny) else {
                break;
            };
            deny &= !bit;
            if suppression(&file.lines, line.no, class_name(bit)).is_some() {
                continue;
            }
            let chain = witness_chain(ws, root, id, parent);
            out.push(Violation {
                file: file.path.clone(),
                line: line.no,
                pass: "taint",
                class: class_name(bit),
                msg: format!(
                    "{what} reachable from untrusted-byte source `{}` via {chain} (source contract: {}); fix it or annotate `// analyze: allow({}): <reason>`",
                    source_label(src),
                    src.why,
                    class_name(bit),
                ),
            });
        }
    }
}

fn witness_chain(ws: &Workspace, root: FnId, id: FnId, parent: &HashMap<FnId, FnId>) -> String {
    let mut chain = vec![id];
    let mut cur = id;
    while cur != root {
        let Some(&p) = parent.get(&cur) else { break };
        chain.push(p);
        cur = p;
    }
    chain.reverse();
    chain
        .iter()
        .map(|&f| ws.fns[f].label())
        .collect::<Vec<_>>()
        .join(" -> ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{parse_source, resolve_calls, Workspace};

    fn ws(src: &str) -> Workspace {
        let mut ws = Workspace::default();
        parse_source(&mut ws, "t.rs", src);
        resolve_calls(&mut ws);
        ws
    }

    const SRC: &[Source] = &[Source {
        type_qual: None,
        name: "ingest",
        deny: tclass::ALL,
        why: "test source",
    }];

    fn run_t(w: &Workspace) -> Vec<Violation> {
        run_with(w, SRC, &[])
    }

    #[test]
    fn unchecked_index_is_flagged_transitively() {
        let w = ws("fn ingest(b: &[u8]) {\n    inner(b);\n}\nfn inner(b: &[u8]) {\n    let _x = b[0];\n}\n");
        let v = run_t(&w);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].class, "taint-index");
        assert!(v[0].msg.contains("ingest -> inner"), "{}", v[0].msg);
    }

    #[test]
    fn get_based_access_is_legal() {
        let w = ws("fn ingest(b: &[u8]) {\n    let _x = b.get(0);\n    let _y: &[u8] = &b[..]; // analyze: allow(taint-index): full-range slice cannot panic\n}\n");
        let relevant: Vec<_> = run_t(&w)
            .into_iter()
            .filter(|v| v.class == "taint-index")
            .collect();
        assert!(relevant.is_empty(), "{relevant:?}");
    }

    #[test]
    fn attribute_and_macro_brackets_are_not_indexing() {
        let w = ws("fn ingest(b: &[u8]) {\n    #[allow(dead_code)]\n    let _v: &[u8] = b;\n    let _w = [0u8; 4];\n}\n");
        assert!(run_t(&w).is_empty(), "{:?}", run_t(&w));
    }

    #[test]
    fn tainted_arith_is_flagged_and_wrapping_is_legal() {
        let w = ws("fn ingest(b: &[u8]) {\n    let payload_len = b.len();\n    let _x = payload_len * 4;\n}\n");
        let v = run_t(&w);
        assert!(v.iter().any(|v| v.class == "taint-arith"), "{v:?}");
        let w2 = ws("fn ingest(b: &[u8]) {\n    let payload_len = b.len();\n    let _x = payload_len.checked_mul(4);\n}\n");
        assert!(
            !run_t(&w2).iter().any(|v| v.class == "taint-arith"),
            "{:?}",
            run_t(&w2)
        );
    }

    #[test]
    fn arith_on_untainted_names_is_legal() {
        let w = ws("fn ingest(_b: &[u8]) {\n    let budget = 3;\n    let _x = budget * 4;\n}\n");
        assert!(run_t(&w).is_empty(), "{:?}", run_t(&w));
    }

    #[test]
    fn panic_and_alloc_reuse_purity_patterns() {
        let w = ws("fn ingest(b: &[u8]) {\n    let v = b.to_vec();\n    v.first().unwrap();\n}\n");
        let classes: Vec<_> = run_t(&w).iter().map(|v| v.class).collect();
        assert!(classes.contains(&"taint-alloc"), "{classes:?}");
        assert!(classes.contains(&"taint-panic"), "{classes:?}");
    }

    #[test]
    fn while_loop_is_flagged_for_is_bounded() {
        let w = ws("fn ingest(b: &[u8]) {\n    while !b.is_empty() {\n    }\n    for _x in b {\n    }\n}\n");
        let v = run_t(&w);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].class, "taint-loop");
    }

    #[test]
    fn mask_gates_classes() {
        let srcs: &[Source] = &[Source {
            type_qual: None,
            name: "ingest",
            deny: tclass::PANIC,
            why: "panic only",
        }];
        let w = ws("fn ingest(b: &[u8]) {\n    let _x = b[0];\n}\n");
        assert!(run_with(&w, srcs, &[]).is_empty());
    }

    #[test]
    fn scope_cuts_the_trust_boundary() {
        let mut w = Workspace::default();
        parse_source(
            &mut w,
            "crates/transport/src/a.rs",
            "fn ingest(b: &[u8]) {\n    outside(b);\n}\n",
        );
        parse_source(
            &mut w,
            "crates/core/src/b.rs",
            "pub fn outside(b: &[u8]) {\n    let _x = b[0];\n}\n",
        );
        resolve_calls(&mut w);
        let v = run_with(&w, SRC, &["crates/transport/src"]);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn missing_source_is_reported() {
        let w = ws("fn other() {}\n");
        let v = run_t(&w);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].class, "source-missing");
    }

    #[test]
    fn suppression_with_reason_clears_each_class() {
        let w = ws(concat!(
            "fn ingest(b: &[u8]) {\n",
            "    // analyze: allow(taint-index): header length checked two lines up\n",
            "    let _x = b[0];\n",
            "    let seq = 1u32;\n",
            "    // analyze: allow(taint-arith): seq is u32, wrap is the protocol\n",
            "    let _y = seq + 1;\n",
            "}\n"
        ));
        assert!(run_t(&w).is_empty(), "{:?}", run_t(&w));
    }

    #[test]
    fn multiple_classes_on_one_line_all_reported() {
        let w = ws("fn ingest(b: &[u8]) {\n    let payload_len = 4;\n    let _v = b[payload_len * 2..].to_vec();\n}\n");
        let classes: Vec<_> = run_t(&w).iter().map(|v| v.class).collect();
        assert!(classes.contains(&"taint-index"), "{classes:?}");
        assert!(classes.contains(&"taint-arith"), "{classes:?}");
        assert!(classes.contains(&"taint-alloc"), "{classes:?}");
    }
}
