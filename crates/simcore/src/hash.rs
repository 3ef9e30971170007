//! FNV-1a, the workspace's one content hash.
//!
//! Payload digests (load reports, replay oracles, the write-back dirty
//! ledger), the front tier's ring placement and the protocol core's
//! re-mastering shards all fold bytes through this one function, so their
//! values agree by construction. The 64-bit parameters are the standard
//! ones; ring placement and shard assignment depend on them bit for bit.

/// The FNV-1a offset basis: a digest accumulator's initial value.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// Fold `bytes` into an FNV-1a digest accumulator. Chaining calls is the
/// same as hashing the concatenation.
#[inline]
pub fn fnv1a(digest: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *digest ^= b as u64;
        *digest = digest.wrapping_mul(FNV_PRIME);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hash(bytes: &[u8]) -> u64 {
        let mut d = FNV_OFFSET;
        fnv1a(&mut d, bytes);
        d
    }

    #[test]
    fn standard_vectors() {
        assert_eq!(hash(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(hash(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(hash(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn chaining_equals_concatenation() {
        let mut d = FNV_OFFSET;
        fnv1a(&mut d, b"foo");
        fnv1a(&mut d, b"bar");
        assert_eq!(d, hash(b"foobar"));
    }
}
