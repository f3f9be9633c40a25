//! Allocation budget of the probe-to-record path.
//!
//! An index probe allocates nothing; a point read allocates the row it
//! returns — the `Vec<Value>` and one `String` per varchar column — and
//! nothing else. The budgets are counted, not timed: a counting global
//! allocator tallies `alloc`/`realloc` calls per thread, so other tests and
//! the buffer pool's background thread do not show up in the numbers.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use dora_storage::db::{Database, LockingPolicy};
use dora_storage::schema::{ColumnDef, TableSchema};
use dora_storage::types::{DataType, TableId, Value};

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded unchanged to `System`; the only addition
// is a bump of a const-initialised, destructor-free thread-local counter,
// which itself never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Most allocations any one of `calls` invocations of `f` made on this
/// thread.
fn worst_case(calls: usize, mut f: impl FnMut(usize)) -> u64 {
    (0..calls)
        .map(|i| {
            let before = ALLOCATIONS.with(Cell::get);
            f(i);
            ALLOCATIONS.with(Cell::get) - before
        })
        .max()
        .expect("at least one call")
}

const SUBSCRIBERS: i64 = 5_000;
/// Varchar columns of a subscriber row (`sub_nbr`).
const SUBSCRIBER_VARCHARS: u64 = 1;

/// TATP's two shapes of table: `subscriber` (one integer key column, a
/// `Varchar(15)` and a tail of small integers) and `call_forwarding` (the
/// widest key: bigint + int + int), loaded through the ordinary insert
/// path so the trees are several levels deep.
fn tatp_shaped() -> (Database, TableId, TableId) {
    let db = Database::default();
    let mut columns = vec![
        ColumnDef::new("s_id", DataType::BigInt),
        ColumnDef::new("sub_nbr", DataType::Varchar(15)),
    ];
    for i in 0..10 {
        columns.push(ColumnDef::new(format!("bit_{i}"), DataType::Bool));
        columns.push(ColumnDef::new(format!("byte2_{i}"), DataType::Int));
    }
    columns.push(ColumnDef::new("vlr_location", DataType::BigInt));
    let subscriber = db
        .create_table(TableSchema::new("subscriber", columns, vec![0]))
        .unwrap();
    let call_forwarding = db
        .create_table(TableSchema::new(
            "call_forwarding",
            vec![
                ColumnDef::new("s_id", DataType::BigInt),
                ColumnDef::new("sf_type", DataType::Int),
                ColumnDef::new("start_time", DataType::Int),
                ColumnDef::new("end_time", DataType::Int),
                ColumnDef::new("numberx", DataType::Varchar(15)),
            ],
            vec![0, 1, 2],
        ))
        .unwrap();
    let policy = LockingPolicy::Bypass;
    let txn = db.begin();
    for s_id in 0..SUBSCRIBERS {
        let mut row = vec![Value::BigInt(s_id), Value::Varchar(format!("{s_id:015}"))];
        for i in 0..10 {
            row.push(Value::Bool((s_id + i) % 2 == 0));
            row.push(Value::Int(((s_id + i) % 256) as i32));
        }
        row.push(Value::BigInt(s_id * 7));
        db.insert(txn, subscriber, row, policy).unwrap();
        for start_time in [0, 8, 16] {
            let row = vec![
                Value::BigInt(s_id),
                Value::Int(1 + (s_id % 4) as i32),
                Value::Int(start_time),
                Value::Int(start_time + 8),
                Value::Varchar(format!("{:015}", s_id * 3)),
            ];
            db.insert(txn, call_forwarding, row, policy).unwrap();
        }
    }
    db.commit_policy(txn, policy).unwrap();
    (db, subscriber, call_forwarding)
}

fn s_id_of(i: usize) -> i64 {
    (i as i64 * 7_919) % SUBSCRIBERS
}

#[test]
fn index_probes_allocate_nothing_and_point_reads_only_the_row() {
    let (db, subscriber, call_forwarding) = tatp_shaped();
    let policy = LockingPolicy::Bypass;
    let calls = 2_000;

    // --- the tree: one- and three-column keys, hits and misses ----------
    let sub_tree = db.primary_tree(subscriber).unwrap();
    let cf_tree = db.primary_tree(call_forwarding).unwrap();
    assert!(sub_tree.height() >= 2 && cf_tree.height() >= 2);
    let probes = worst_case(calls, |i| {
        let s_id = s_id_of(i);
        assert!(sub_tree.get_first(&[Value::BigInt(s_id)]).is_some());
        assert!(sub_tree.contains_key(&[Value::Int(s_id as i32)]));
        assert!(!sub_tree.contains_key(&[Value::BigInt(s_id + SUBSCRIBERS)]));
        let cf_key = [
            Value::BigInt(s_id),
            Value::Int(1 + (s_id % 4) as i32),
            Value::Int(8),
        ];
        assert!(cf_tree.get_first(&cf_key).is_some());
        assert!(!cf_tree.contains_key(&[Value::BigInt(s_id), Value::Int(9), Value::Int(8)]));
    });
    assert_eq!(probes, 0, "get_first/contains_key must not allocate");

    // --- Database::get: the returned row and nothing else ---------------
    let txn = db.begin();
    let get = worst_case(calls, |i| {
        let row = db
            .get(txn, subscriber, &[Value::BigInt(s_id_of(i))], policy)
            .unwrap();
        assert!(row.is_some());
    });
    assert!(
        get <= 1 + SUBSCRIBER_VARCHARS,
        "Database::get allocated {get} times for a row with {SUBSCRIBER_VARCHARS} varchar column(s)"
    );
    let miss = worst_case(calls, |i| {
        let key = [Value::BigInt(SUBSCRIBERS + i as i64)];
        assert!(db.get(txn, subscriber, &key, policy).unwrap().is_none());
    });
    assert_eq!(miss, 0, "a miss returns no row and allocates nothing");

    // --- read_validated: at most two more than get -----------------------
    let validated = worst_case(calls, |i| {
        let row = db
            .read_validated(txn, subscriber, &[Value::BigInt(s_id_of(i))], policy)
            .unwrap();
        assert!(row.is_some());
    });
    assert!(
        validated <= get + 2,
        "read_validated allocated {validated} times, Database::get {get}"
    );

    // --- update: reported, not gated --------------------------------------
    let vlr = 2 + 2 * 10; // after s_id, sub_nbr and the ten bit/byte2 pairs
    let update = worst_case(calls, |i| {
        let set = [(vlr, Value::BigInt(i as i64))];
        assert!(db
            .update(txn, subscriber, &[Value::BigInt(s_id_of(i))], &set, policy)
            .unwrap());
    });
    db.commit_policy(txn, policy).unwrap();
    println!(
        "allocations per call (worst of {calls}): probe {probes}, get {get}, get-miss {miss}, \
         read_validated {validated}, update {update}"
    );
}
