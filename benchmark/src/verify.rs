//! Output correctness, checked on every operation outside the stopwatch.
//!
//! Reads are compared with a per-file table of lengths and checksums taken
//! from the store during set-up. Writes carry a self-describing image
//! (caller, sequence, filler derived from both, checksum), so a read of a
//! written block is right when it holds the pristine bytes or one complete
//! image — never a mix of two.

use ccm_core::{BlockId, FileId, BLOCK_SIZE};
use ccm_rt::{BlockStore, Catalog};
use simcore::rng::splitmix64;

/// Marks a block as a write image.
const IMAGE_MAGIC: u64 = 0xCC4D_5752_4954_4531;
/// Magic, caller, sequence in front; checksum behind.
const IMAGE_OVERHEAD: usize = 32;

/// A position-dependent checksum over 8-byte words (Fletcher's scheme on
/// wide words): swapping, dropping or flipping anything changes it.
pub fn checksum(bytes: &[u8]) -> u64 {
    let mut sum = 0u64;
    let mut sum_of_sums = 0u64;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        sum = sum.wrapping_add(u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
        sum_of_sums = sum_of_sums.wrapping_add(sum);
    }
    let mut tail = [0u8; 8];
    let rest = words.remainder();
    tail[..rest.len()].copy_from_slice(rest);
    sum = sum.wrapping_add(u64::from_le_bytes(tail));
    sum_of_sums = sum_of_sums.wrapping_add(sum);
    sum ^ sum_of_sums.rotate_left(32) ^ bytes.len() as u64
}

/// Fill `buf` with the image of write `seq` by `caller`, `len` bytes long.
///
/// # Panics
/// Panics if `len` cannot hold the image header and checksum (the Calgary
/// preset's smallest file has 512 bytes).
pub fn write_image(buf: &mut Vec<u8>, len: usize, caller: u64, seq: u64) {
    assert!(len >= IMAGE_OVERHEAD, "block too short for a write image");
    buf.clear();
    buf.extend_from_slice(&IMAGE_MAGIC.to_le_bytes());
    buf.extend_from_slice(&caller.to_le_bytes());
    buf.extend_from_slice(&seq.to_le_bytes());
    let mut state = (caller << 48) ^ seq;
    while buf.len() < len - 8 {
        let word = splitmix64(&mut state).to_le_bytes();
        let take = word.len().min(len - 8 - buf.len());
        buf.extend_from_slice(&word[..take]);
    }
    let sum = checksum(buf);
    buf.extend_from_slice(&sum.to_le_bytes());
}

/// True if `bytes` is one complete write image.
pub fn image_ok(bytes: &[u8]) -> bool {
    if bytes.len() < IMAGE_OVERHEAD || bytes[..8] != IMAGE_MAGIC.to_le_bytes() {
        return false;
    }
    let (body, sum) = bytes.split_at(bytes.len() - 8);
    checksum(body).to_le_bytes() == sum
}

struct FileSums {
    len: u64,
    block0: u64,
    rest: u64,
}

/// The per-file reference table.
pub struct Checker {
    files: Vec<FileSums>,
}

impl Checker {
    /// Read every block of `catalog` from `store` once and keep, per file,
    /// its length and the checksums of its first block and of the rest
    /// (writes only ever replace a file's first block).
    pub fn from_store(store: &dyn BlockStore, catalog: &Catalog) -> Checker {
        let files = (0..catalog.num_files())
            .map(|f| {
                let file = FileId(f as u32);
                let mut rest = Vec::new();
                for b in 1..catalog.blocks_of(file) {
                    rest.extend_from_slice(&store.read_block(BlockId::new(file, b)));
                }
                FileSums {
                    len: catalog.size_of(file),
                    block0: checksum(&store.read_block(BlockId::new(file, 0))),
                    rest: checksum(&rest),
                }
            })
            .collect();
        Checker { files }
    }

    /// True if `body` is a correct read of `file`: the right length, the
    /// pristine remainder, and a first block that is pristine or one
    /// complete write image.
    pub fn file_ok(&self, file: FileId, body: &[u8]) -> bool {
        let want = &self.files[file.0 as usize];
        if body.len() as u64 != want.len {
            return false;
        }
        let (block0, rest) = body.split_at(body.len().min(BLOCK_SIZE as usize));
        checksum(rest) == want.rest && (checksum(block0) == want.block0 || image_ok(block0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccm_rt::SyntheticStore;

    fn fixture() -> (Catalog, SyntheticStore, Checker) {
        let catalog = Catalog::new(vec![700u64, 8192, 20_000, 8193]);
        let store = SyntheticStore::new(catalog.clone(), 5);
        let checker = Checker::from_store(&store, &catalog);
        (catalog, store, checker)
    }

    #[test]
    fn accepts_pristine_reads_and_rejects_a_flipped_byte_anywhere() {
        let (catalog, store, checker) = fixture();
        for f in 0..catalog.num_files() {
            let file = FileId(f as u32);
            let body = ccm_rt::store::read_file_direct(&store, &catalog, file);
            assert!(checker.file_ok(file, &body));
            for at in [0, body.len() / 2, body.len() - 1] {
                let mut bad = body.clone();
                bad[at] ^= 0x10;
                assert!(
                    !checker.file_ok(file, &bad),
                    "file {f}: flip at {at} passed"
                );
            }
            assert!(
                !checker.file_ok(file, &body[..body.len() - 1]),
                "short body"
            );
        }
        // Another file's bytes of the same length are wrong too.
        let other = SyntheticStore::new(catalog.clone(), 6);
        let body = ccm_rt::store::read_file_direct(&other, &catalog, FileId(1));
        assert!(!checker.file_ok(FileId(1), &body));
    }

    #[test]
    fn accepts_one_complete_write_image_and_rejects_a_torn_one() {
        let (catalog, store, checker) = fixture();
        let file = FileId(2);
        let pristine = ccm_rt::store::read_file_direct(&store, &catalog, file);
        let (mut first, mut second) = (Vec::new(), Vec::new());
        write_image(&mut first, BLOCK_SIZE as usize, 0, 41);
        write_image(&mut second, BLOCK_SIZE as usize, 1, 42);
        assert!(image_ok(&first) && image_ok(&second));

        let mut body = pristine.clone();
        body[..first.len()].copy_from_slice(&first);
        assert!(
            checker.file_ok(file, &body),
            "a complete image is a valid read"
        );

        // Torn between two images: the head of one, the tail of the other.
        let mut torn = first.clone();
        torn[4096..].copy_from_slice(&second[4096..]);
        assert!(!image_ok(&torn));
        body[..torn.len()].copy_from_slice(&torn);
        assert!(!checker.file_ok(file, &body));

        // Torn between an image and the pristine block.
        let mut half = pristine.clone();
        half[..4096].copy_from_slice(&first[..4096]);
        assert!(!checker.file_ok(file, &half));

        // Short blocks carry images too.
        let mut small = Vec::new();
        write_image(&mut small, 700, 1, 7);
        assert_eq!(small.len(), 700);
        assert!(checker.file_ok(FileId(0), &small));
        small[699] ^= 1;
        assert!(!checker.file_ok(FileId(0), &small));
    }
}
