//! Normalized index keys: an order-preserving byte encoding of a composite
//! [`Key`], compared with one `memcmp`.
//!
//! A key is the concatenation of its columns, each a **tag byte** followed
//! by a self-delimiting payload:
//!
//! | value             | tag    | payload                                              |
//! |-------------------|--------|------------------------------------------------------|
//! | `Null`            | `0x00` | —                                                    |
//! | `Bool`            | `0x01` | `0x00` / `0x01`                                      |
//! | `Int`, `BigInt`   | `0x02` | the value as `i64`, sign bit flipped, big-endian (8) |
//! | `Double`          | `0x03` | IEEE bits, big-endian (8): all bits flipped when     |
//! |                   |        | negative, else the sign bit set — `f64::total_cmp`   |
//! | `Varchar`         | `0x04` | the UTF-8 bytes with `0x00` → `0x00 0xFF`, then a    |
//! |                   |        | terminating `0x00`                                   |
//!
//! The contract (pinned by the tests below), for keys whose columns are
//! **schema-typed** — position *i* of every key holds NULL or values of one
//! column type, which is what [`crate::schema::TableSchema::validate`]
//! admits into a tree:
//!
//! * **order** — `encode(a).cmp(encode(b)) == a.as_slice().cmp(b.as_slice())`:
//!   NULL sorts lowest, a key that is a strict prefix of another sorts
//!   before it, `Int(5)` and `BigInt(5)` are the same bytes (they compare
//!   and hash equal as values, too);
//! * **prefix** — `encode(&k[..n])` is a byte prefix of `encode(k)`, and
//!   because every column is self-delimiting the converse holds: the bytes
//!   start with `encode(p)` exactly when the key starts with `p`;
//! * **round trip** — `decode(encode(k)) == k` (an `Int` comes back as the
//!   equal `BigInt`).
//!
//! What the bytes do **not** reproduce is `Value`'s numeric comparison
//! *across* families: `Double(5.0) == BigInt(5)` as values, but their tags
//! differ. See the narrowing note in [`crate::btree`].
//!
//! Keys of up to [`INLINE_BYTES`] bytes live inside the `NormKey` itself —
//! in a node's entry array, or on the stack for a probe — and longer ones
//! spill to one heap block behind the same [`NormKey::as_bytes`].

use std::cmp::Ordering;

use crate::types::{Key, Value};

/// Longest encoding held inline. 30 bytes make the whole `NormKey` 32 —
/// two per cache line — and cover three 9-byte integer columns (TATP's
/// widest key) or an integer plus a `Varchar(15)`.
pub(crate) const INLINE_BYTES: usize = 30;

const TAG_NULL: u8 = 0x00;
const TAG_BOOL: u8 = 0x01;
const TAG_INT: u8 = 0x02;
const TAG_DOUBLE: u8 = 0x03;
const TAG_VARCHAR: u8 = 0x04;

/// Ends a varchar; a literal `0x00` inside one is followed by
/// [`VARCHAR_ESCAPE`], which no tag equals, so a terminated string sorts
/// before every extension of itself.
const VARCHAR_END: u8 = 0x00;
const VARCHAR_ESCAPE: u8 = 0xFF;

const SIGN_BIT: u64 = 1 << 63;

/// One encoded key. Ordered and compared by its bytes.
#[derive(Clone)]
pub(crate) enum NormKey {
    /// The first `len` bytes of `bytes`; the rest are zero.
    Inline { bytes: [u8; INLINE_BYTES], len: u8 },
    /// An encoding longer than [`INLINE_BYTES`].
    Spilled(Box<[u8]>),
}

impl NormKey {
    /// Encodes `values`; allocates only when the encoding spills.
    pub(crate) fn encode(values: &[Value]) -> NormKey {
        let mut w = Writer {
            inline: [0; INLINE_BYTES],
            len: 0,
            spill: Vec::new(),
        };
        for v in values {
            match v {
                Value::Null => w.put(&[TAG_NULL]),
                Value::Bool(b) => w.put(&[TAG_BOOL, *b as u8]),
                Value::Int(i) => w.put_tagged(TAG_INT, *i as i64 as u64 ^ SIGN_BIT),
                Value::BigInt(i) => w.put_tagged(TAG_INT, *i as u64 ^ SIGN_BIT),
                Value::Double(d) => {
                    let bits = d.to_bits();
                    let ordered = if bits & SIGN_BIT != 0 {
                        !bits
                    } else {
                        bits | SIGN_BIT
                    };
                    w.put_tagged(TAG_DOUBLE, ordered);
                }
                Value::Varchar(s) => {
                    w.put(&[TAG_VARCHAR]);
                    let mut rest = s.as_bytes();
                    while let Some(nul) = rest.iter().position(|&b| b == 0) {
                        w.put(&rest[..nul]);
                        w.put(&[0, VARCHAR_ESCAPE]);
                        rest = &rest[nul + 1..];
                    }
                    w.put(rest);
                    w.put(&[VARCHAR_END]);
                }
            }
        }
        if w.spill.is_empty() {
            NormKey::Inline {
                bytes: w.inline,
                len: w.len as u8,
            }
        } else {
            NormKey::Spilled(w.spill.into_boxed_slice())
        }
    }

    /// The encoded bytes — what the order is defined on.
    #[inline]
    pub(crate) fn as_bytes(&self) -> &[u8] {
        match self {
            NormKey::Inline { bytes, len } => &bytes[..*len as usize],
            NormKey::Spilled(bytes) => bytes,
        }
    }

    /// Whether the key this encodes starts with the columns `prefix`
    /// encodes (columns are self-delimiting, so a byte prefix is a column
    /// prefix).
    pub(crate) fn starts_with(&self, prefix: &NormKey) -> bool {
        self.as_bytes().starts_with(prefix.as_bytes())
    }
}

impl Ord for NormKey {
    /// `self.as_bytes().cmp(other.as_bytes())`, without the `memcmp` call
    /// when both keys are inline: their zero-padded arrays are compared a
    /// big-endian word at a time, and the length breaks the one tie that
    /// leaves (a key against its own extension by zero bytes). Keys that
    /// differ inside the shorter length differ there in the padded arrays
    /// too; a strict prefix pads with zeros against bytes that are at
    /// least zero.
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        let (
            NormKey::Inline {
                bytes: a,
                len: a_len,
            },
            NormKey::Inline {
                bytes: b,
                len: b_len,
            },
        ) = (self, other)
        else {
            return self.as_bytes().cmp(other.as_bytes());
        };
        // The last word overlaps the one before it: 30 is not a multiple
        // of 8, and re-comparing two equal bytes is cheaper than padding.
        for at in [0, 8, 16, INLINE_BYTES - 8] {
            let word = |key: &[u8; INLINE_BYTES]| {
                u64::from_be_bytes(key[at..at + 8].try_into().expect("8-byte window"))
            };
            if word(a) != word(b) {
                return word(a).cmp(&word(b));
            }
        }
        a_len.cmp(b_len)
    }
}

impl PartialOrd for NormKey {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for NormKey {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for NormKey {}

/// Decodes the bytes of a [`NormKey`] back to values, for the callers that
/// read a scanned key.
pub(crate) fn decode(bytes: &[u8]) -> Key {
    const MALFORMED: &str = "normalized keys are only ever produced by NormKey::encode";
    fn word(rest: &mut &[u8]) -> u64 {
        let (head, tail) = rest.split_first_chunk::<8>().expect(MALFORMED);
        *rest = tail;
        u64::from_be_bytes(*head)
    }
    let mut rest = bytes;
    let mut key = Key::new();
    while let Some((&tag, after)) = rest.split_first() {
        rest = after;
        key.push(match tag {
            TAG_NULL => Value::Null,
            TAG_BOOL => {
                let (&b, tail) = rest.split_first().expect(MALFORMED);
                rest = tail;
                Value::Bool(b != 0)
            }
            TAG_INT => Value::BigInt((word(&mut rest) ^ SIGN_BIT) as i64),
            TAG_DOUBLE => {
                let ordered = word(&mut rest);
                Value::Double(f64::from_bits(if ordered & SIGN_BIT != 0 {
                    ordered ^ SIGN_BIT
                } else {
                    !ordered
                }))
            }
            TAG_VARCHAR => {
                let mut s = Vec::new();
                loop {
                    let nul = rest.iter().position(|&b| b == 0).expect(MALFORMED);
                    s.extend_from_slice(&rest[..nul]);
                    let escaped = rest.get(nul + 1) == Some(&VARCHAR_ESCAPE);
                    rest = &rest[nul + 1 + escaped as usize..];
                    if !escaped {
                        break;
                    }
                    s.push(0);
                }
                Value::Varchar(String::from_utf8(s).expect(MALFORMED))
            }
            _ => panic!("{MALFORMED}"),
        });
    }
    key
}

/// Fills the inline buffer and moves to the heap on the first byte that
/// does not fit.
struct Writer {
    inline: [u8; INLINE_BYTES],
    len: usize,
    /// Non-empty once the encoding has outgrown `inline` (it then holds
    /// everything written so far).
    spill: Vec<u8>,
}

impl Writer {
    fn put(&mut self, bytes: &[u8]) {
        let end = self.len + bytes.len();
        if self.spill.is_empty() && end <= INLINE_BYTES {
            self.inline[self.len..end].copy_from_slice(bytes);
        } else {
            if self.spill.is_empty() {
                self.spill.reserve(end.max(2 * INLINE_BYTES));
                self.spill.extend_from_slice(&self.inline[..self.len]);
            }
            self.spill.extend_from_slice(bytes);
        }
        self.len = end;
    }

    fn put_tagged(&mut self, tag: u8, ordered: u64) {
        let mut column = [tag; 9];
        column[1..].copy_from_slice(&ordered.to_be_bytes());
        self.put(&column);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::DataType;

    fn enc(key: &[Value]) -> Vec<u8> {
        NormKey::encode(key).as_bytes().to_vec()
    }

    /// How the encodings of `a` and `b` order — by their bytes and by
    /// `NormKey`'s word-wise `Ord`, which must agree.
    fn enc_cmp(a: &[Value], b: &[Value]) -> Ordering {
        let by_bytes = enc(a).cmp(&enc(b));
        assert_eq!(
            NormKey::encode(a).cmp(&NormKey::encode(b)),
            by_bytes,
            "Ord disagrees with the bytes for {a:?} vs {b:?}"
        );
        by_bytes
    }

    fn s(v: &str) -> Value {
        Value::Varchar(v.into())
    }

    /// Every ordered pair of `column` values, alone and as the second
    /// column of a composite key, compares in bytes as it does in values.
    fn assert_column_order(column: &[Value]) {
        for a in column {
            for b in column {
                assert_eq!(
                    enc_cmp(std::slice::from_ref(a), std::slice::from_ref(b)),
                    a.cmp(b),
                    "{a:?} vs {b:?}"
                );
                let (ka, kb) = (
                    [Value::BigInt(1), a.clone(), Value::Int(0)],
                    [Value::BigInt(1), b.clone(), Value::Int(-1)],
                );
                assert_eq!(
                    enc_cmp(&ka, &kb),
                    ka.as_slice().cmp(kb.as_slice()),
                    "{ka:?} vs {kb:?}"
                );
            }
        }
    }

    #[test]
    fn integer_edges_order_and_int_equals_bigint() {
        assert_column_order(&[
            Value::Null,
            Value::BigInt(i64::MIN),
            Value::Int(i32::MIN),
            Value::BigInt(-1),
            Value::Int(-1),
            Value::BigInt(0),
            Value::Int(5),
            Value::BigInt(5),
            Value::Int(i32::MAX),
            Value::BigInt(i64::MAX),
        ]);
        assert_eq!(enc(&[Value::Int(5)]), enc(&[Value::BigInt(5)]));
    }

    #[test]
    fn double_edges_follow_total_cmp() {
        let doubles = [
            -f64::NAN,
            f64::NEG_INFINITY,
            f64::MIN,
            -1.5,
            -f64::MIN_POSITIVE,
            -0.0,
            0.0,
            f64::MIN_POSITIVE,
            1.5,
            f64::MAX,
            f64::INFINITY,
            f64::NAN,
        ];
        for a in doubles {
            for b in doubles {
                assert_eq!(
                    enc_cmp(&[Value::Double(a)], &[Value::Double(b)]),
                    a.total_cmp(&b),
                    "{a:?} vs {b:?}"
                );
            }
        }
        let mut column = vec![Value::Null];
        column.extend(doubles.map(Value::Double));
        assert_column_order(&column);
        // -0.0 and 0.0 are distinct keys, and NaN round-trips as NaN.
        assert_ne!(enc(&[Value::Double(-0.0)]), enc(&[Value::Double(0.0)]));
        let back = decode(&enc(&[Value::Double(f64::NAN)]));
        assert!(matches!(back[0], Value::Double(d) if d.is_nan()));
    }

    #[test]
    fn varchar_edges_order_with_embedded_nul() {
        assert_column_order(&[
            Value::Null,
            s(""),
            s("a"),
            s("a\0"),
            s("a\0\0"),
            s("a\0b"),
            s("a\u{1}"),
            s("ab"),
            s("b"),
            s("\u{7f}"),
            s("é"),
        ]);
    }

    #[test]
    fn bool_and_null_order() {
        assert_column_order(&[Value::Null, Value::Bool(false), Value::Bool(true)]);
        // NULL sorts below every typed value.
        for v in [
            Value::Bool(false),
            Value::BigInt(i64::MIN),
            Value::Double(f64::NEG_INFINITY),
            s(""),
        ] {
            assert!(enc(&[Value::Null]) < enc(&[v]));
        }
    }

    #[test]
    fn strict_prefix_sorts_first_and_is_a_byte_prefix() {
        let long = [Value::BigInt(7), s("x\0y"), Value::Int(3), Value::Null];
        for n in 0..long.len() {
            let short = &long[..n];
            assert_eq!(enc_cmp(short, &long), Ordering::Less);
            assert!(enc(&long).starts_with(&enc(short)));
        }
        // Self-delimiting columns: sharing a byte prefix means sharing the
        // column prefix — "a" is not a prefix of "ab" as a *key*.
        assert!(!enc(&[s("ab")]).starts_with(&enc(&[s("a")])));
        assert!(!enc(&[Value::BigInt(256)]).starts_with(&enc(&[Value::BigInt(1)])));
    }

    #[test]
    fn long_keys_spill_behind_the_same_bytes() {
        let wide = s(&"w".repeat(200));
        let key = [Value::BigInt(1), wide.clone(), Value::Int(2)];
        let encoded = NormKey::encode(&key);
        assert!(matches!(encoded, NormKey::Spilled(_)));
        assert!(encoded.as_bytes().starts_with(&enc(&key[..1])));
        assert_eq!(decode(encoded.as_bytes()), key);
        // The boundary: exactly INLINE_BYTES stays inline, one more spills.
        let fits = [s(&"x".repeat(INLINE_BYTES - 2))];
        assert!(matches!(NormKey::encode(&fits), NormKey::Inline { .. }));
        let spills = [s(&"x".repeat(INLINE_BYTES - 1))];
        assert!(matches!(NormKey::encode(&spills), NormKey::Spilled(_)));
        assert_eq!(enc_cmp(&fits, &spills), Ordering::Less);
        // Three integer columns — TATP's widest key — stay inline.
        let cf = [Value::BigInt(1), Value::Int(2), Value::Int(3)];
        assert!(matches!(NormKey::encode(&cf), NormKey::Inline { .. }));
        assert!(std::mem::size_of::<NormKey>() <= 32);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        /// SplitMix64: expands one drawn seed into the many small choices
        /// a schema-typed pair needs.
        struct Draw(u64);

        impl Draw {
            fn next(&mut self) -> u64 {
                self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = self.0;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            }

            fn below(&mut self, n: usize) -> usize {
                (self.next() % n as u64) as usize
            }
        }

        /// A value a column of type `dtype` admits: NULL now and then,
        /// edge values often, otherwise drawn from a small domain so that
        /// equal and adjacent values are common.
        fn value_of(dtype: DataType, draw: &mut Draw) -> Value {
            if draw.below(8) == 0 {
                return Value::Null;
            }
            let small = draw.below(7) as i64 - 3;
            match dtype {
                DataType::Int => Value::Int(match draw.below(5) {
                    0 => i32::MIN,
                    1 => i32::MAX,
                    _ => small as i32,
                }),
                // An Int probe against a BigInt column is legal.
                DataType::BigInt => match draw.below(6) {
                    0 => Value::BigInt(i64::MIN),
                    1 => Value::BigInt(i64::MAX),
                    2 => Value::Int(small as i32),
                    _ => Value::BigInt(small),
                },
                DataType::Double => Value::Double(match draw.below(7) {
                    0 => f64::NAN,
                    1 => f64::NEG_INFINITY,
                    2 => -0.0,
                    // Any bit pattern: subnormals, NaN payloads, both signs.
                    3 => f64::from_bits(draw.next()),
                    _ => small as f64 / 2.0,
                }),
                DataType::Bool => Value::Bool(draw.below(2) == 0),
                DataType::Varchar(_) => {
                    let alphabet = ['\0', 'a', 'b', '\u{ff}'];
                    Value::Varchar(
                        (0..draw.below(4))
                            .map(|_| alphabet[draw.below(4)])
                            .collect(),
                    )
                }
            }
        }

        /// Two keys over one random 1–4 column schema. The second shares a
        /// leading run with the first half the time (so the comparison is
        /// decided deep in the key) and is cut short now and then (so
        /// strict prefixes occur).
        fn schema_typed_pair(seed: u64) -> (Key, Key) {
            const TYPES: [DataType; 5] = [
                DataType::Int,
                DataType::BigInt,
                DataType::Double,
                DataType::Varchar(8),
                DataType::Bool,
            ];
            let mut draw = Draw(seed);
            let arity = 1 + draw.below(4);
            let schema: Vec<DataType> = (0..arity).map(|_| TYPES[draw.below(5)]).collect();
            let a: Key = schema.iter().map(|&t| value_of(t, &mut draw)).collect();
            let mut b: Key = schema.iter().map(|&t| value_of(t, &mut draw)).collect();
            let shared = draw.below(2 * arity + 1).min(arity);
            b[..shared].clone_from_slice(&a[..shared]);
            if draw.below(4) == 0 {
                b.truncate(draw.below(arity + 1));
            }
            (a, b)
        }

        proptest! {
            /// Bytes order exactly as the value slices do.
            #[test]
            fn bytes_order_as_values(seed in any::<u64>()) {
                let (a, b) = schema_typed_pair(seed);
                prop_assert_eq!(
                    enc_cmp(&a, &b),
                    a.as_slice().cmp(b.as_slice()),
                    "{:?} vs {:?}", a, b
                );
            }

            /// Every column prefix encodes to a byte prefix, and bytes that
            /// start with an encoded key belong to a key that starts with it.
            #[test]
            fn prefixes_are_byte_prefixes(seed in any::<u64>()) {
                let (a, b) = schema_typed_pair(seed);
                for n in 0..=a.len() {
                    prop_assert!(enc(&a).starts_with(&enc(&a[..n])));
                }
                prop_assert_eq!(
                    enc(&a).starts_with(&enc(&b)),
                    a.len() >= b.len() && a[..b.len()] == b[..],
                    "{:?} vs {:?}", a, b
                );
            }

            /// Decoding returns the key (NaN compares equal to itself under
            /// `Value`'s total order, `Int` to the `BigInt` it comes back as).
            #[test]
            fn decode_inverts_encode(seed in any::<u64>()) {
                let (a, b) = schema_typed_pair(seed);
                for key in [a, b] {
                    let decoded = decode(&enc(&key));
                    prop_assert_eq!(&decoded, &key);
                    prop_assert_eq!(enc(&decoded), enc(&key));
                }
            }
        }
    }
}
