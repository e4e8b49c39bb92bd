//! Deeply nested SQL and long operator chains must come back as a
//! structured `ParseError`, never a stack overflow: a server parses client
//! SQL on worker threads, and an overflow there aborts the whole process.
//!
//! Every shape below runs on a 2 MiB thread, the default stack size. The
//! hostile inputs must be rejected; the largest input of each shape the
//! parser still accepts must also print, normalize, hash, walk and drop on
//! that stack, in time linear in its nesting (no pass may redo a subquery
//! once per enclosing level).

use pi2_sql::visit::collect_table_names;
use pi2_sql::{
    format_query, literal_free, normalize_query, parse_queries, parse_query, ParseError, MAX_DEPTH,
    MAX_OPERATORS,
};

const STACK: usize = 2 << 20;

fn on_small_stack<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    std::thread::Builder::new()
        .stack_size(STACK)
        .spawn(f)
        .expect("spawn")
        .join()
        .expect("thread panicked")
}

/// A query shape whose nesting or operator count grows with its argument.
struct Shape {
    name: &'static str,
    sql: fn(usize) -> String,
    /// Arguments the parser must reject.
    hostile: [usize; 2],
    /// What the rejection says.
    error: &'static str,
}

const NESTS: &str = "nests deeper";
const OPERATORS: &str = "operators";

/// `a = 1` joined by `AND` into a balanced tree of `2^k` leaves.
fn balanced_and(k: usize) -> String {
    if k == 0 {
        return "a = 1".to_string();
    }
    let half = balanced_and(k - 1);
    format!("({half} AND {half})")
}

fn shapes() -> Vec<Shape> {
    let nesting = [1_000, 20_000];
    vec![
        Shape {
            name: "parentheses",
            sql: |n| format!("SELECT {}1{} FROM t", "(".repeat(n), ")".repeat(n)),
            hostile: nesting,
            error: NESTS,
        },
        Shape {
            name: "NOT chain",
            sql: |n| format!("SELECT a FROM t WHERE {}a = 1", "NOT ".repeat(n)),
            hostile: nesting,
            error: NESTS,
        },
        Shape {
            name: "unary minus",
            sql: |n| format!("SELECT {}a FROM t", "- ".repeat(n)),
            hostile: nesting,
            error: NESTS,
        },
        Shape {
            name: "nested subqueries",
            sql: |n| format!("SELECT {}1{}", "(SELECT ".repeat(n), ")".repeat(n)),
            hostile: nesting,
            error: NESTS,
        },
        Shape {
            name: "function calls",
            sql: |n| format!("SELECT {}1{} FROM t", "f(".repeat(n), ")".repeat(n)),
            hostile: nesting,
            error: NESTS,
        },
        Shape {
            name: "left-deep + chain",
            sql: |n| format!("SELECT 1{} FROM t", " + 1".repeat(n)),
            hostile: [1_000, 200_000],
            error: OPERATORS,
        },
        Shape {
            name: "left-deep AND chain",
            sql: |n| format!("SELECT a FROM t WHERE a = 1{}", " AND a = 1".repeat(n)),
            hostile: [1_000, 100_000],
            error: OPERATORS,
        },
        Shape {
            name: "join chain",
            sql: |n| format!("SELECT a FROM t{}", " JOIN t ON a = b".repeat(n)),
            hostile: [1_000, 50_000],
            error: OPERATORS,
        },
        // Normalization flattens any AND tree into one left-deep chain, so
        // a balanced tree must be bounded by its operator count, not by the
        // height it parses at.
        Shape {
            name: "balanced AND tree",
            sql: |k| format!("SELECT a FROM t WHERE {}", balanced_and(k)),
            hostile: [10, 16],
            error: OPERATORS,
        },
        // Both bounds at once: a long chain at the bottom of deep nesting.
        Shape {
            name: "chain under nested subqueries",
            sql: |n| {
                let depth = MAX_DEPTH / 2 - 2;
                format!(
                    "SELECT {}1{}{}",
                    "(SELECT ".repeat(depth),
                    " + 1".repeat(n),
                    ")".repeat(depth)
                )
            },
            hostile: [1_000, 100_000],
            error: OPERATORS,
        },
    ]
}

#[test]
fn hostile_input_is_a_parse_error() {
    on_small_stack(|| {
        for shape in shapes() {
            for n in shape.hostile {
                let err: ParseError = match parse_query(&(shape.sql)(n)) {
                    Ok(_) => panic!("{} x{n} parsed", shape.name),
                    Err(e) => e,
                };
                assert!(err.message.contains(shape.error), "{} x{n}: {err}", shape.name);
                assert!(err.line >= 1 && err.column >= 1, "{} x{n}: {err}", shape.name);
            }
        }
    });
}

#[test]
fn largest_accepted_query_prints_normalizes_and_drops() {
    on_small_stack(|| {
        for shape in shapes() {
            // The largest accepted argument (acceptance is monotone in it).
            let (mut ok, mut bad) = (0usize, shape.hostile[0]);
            while bad - ok > 1 {
                let mid = (ok + bad) / 2;
                if parse_query(&(shape.sql)(mid)).is_ok() {
                    ok = mid;
                } else {
                    bad = mid;
                }
            }
            let mut q = parse_query(&(shape.sql)(ok)).expect("largest accepted");
            let printed = q.to_string();
            assert!(!printed.is_empty());
            assert!(!format_query(&q, 2).is_empty());
            let erased = literal_free(&q);
            let _ = erased.structural_hash();
            assert!(!erased.to_string().is_empty());
            drop(erased);
            let _ = collect_table_names(&q);
            normalize_query(&mut q);
            assert!(!q.to_string().is_empty());
            drop(q);
        }
    });
}

#[test]
fn bounds_do_not_bite_ordinary_queries() {
    // MAX_DEPTH - 2 parentheses: the query and its select item take a level each.
    let deep = format!("SELECT {}1{} FROM t", "(".repeat(MAX_DEPTH - 2), ")".repeat(MAX_DEPTH - 2));
    assert!(parse_query(&deep).is_ok());
    // A flat predicate of MAX_OPERATORS + 1 comparisons: comparisons are
    // not chain operators, only the ANDs between them count.
    let flat = |ands: usize| format!("SELECT a FROM t WHERE a = 0{}", " AND a = 1".repeat(ands));
    assert!(parse_query(&flat(MAX_OPERATORS)).is_ok());
    assert!(parse_query(&flat(MAX_OPERATORS + 1)).is_err());
    // The budget is per query, not per log.
    let log = format!("{}; {}", flat(MAX_OPERATORS), flat(MAX_OPERATORS));
    assert_eq!(parse_queries(&log).map(|qs| qs.len()), Ok(2));
}
