//! Order-insensitive digests of query results.

use perm::Relation;
use perm_storage::encode_key_typed;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(seed: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(seed, |h, b| (h ^ u64::from(*b)).wrapping_mul(FNV_PRIME))
}

/// Digest of a bag of encoded rows: each row is hashed, the hashes are
/// sorted, and the sorted sequence is hashed again — equal for every order
/// of the same bag, different when a multiplicity changes.
pub fn digest_of_rows<'a>(rows: impl Iterator<Item = &'a [u8]>) -> u64 {
    let mut hashes: Vec<u64> = rows.map(|row| fnv1a(FNV_OFFSET, row)).collect();
    hashes.sort_unstable();
    digest_of_sequence(hashes.into_iter())
}

/// Digest of a sequence of digests, order included: the answers of a served
/// batch, in request order.
pub fn digest_of_sequence(digests: impl Iterator<Item = u64>) -> u64 {
    digests.fold(FNV_OFFSET, |h, d| fnv1a(h, &d.to_le_bytes()))
}

/// Bag digest of a relation over the type-exact key encoding of its rows.
pub fn bag_digest(rel: &Relation) -> u64 {
    let encoded: Vec<Vec<u8>> = rel
        .tuples()
        .iter()
        .map(|t| encode_key_typed(t.values()))
        .collect();
    digest_of_rows(encoded.iter().map(Vec::as_slice))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_ignores_order_but_not_multiplicity() {
        let rows: [&[u8]; 3] = [b"alpha", b"beta", b"gamma"];
        let forward = digest_of_rows(rows.iter().copied());
        let backward = digest_of_rows(rows.iter().rev().copied());
        assert_eq!(forward, backward);
        let doubled: [&[u8]; 4] = [b"alpha", b"beta", b"beta", b"gamma"];
        assert_ne!(forward, digest_of_rows(doubled.iter().copied()));
        let changed: [&[u8]; 3] = [b"alpha", b"beta", b"gamm4"];
        assert_ne!(forward, digest_of_rows(changed.iter().copied()));
        assert_ne!(digest_of_rows([].into_iter()), forward);
    }
}
