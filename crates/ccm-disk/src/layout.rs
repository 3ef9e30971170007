//! The catalog → byte-address mapping shared by the scheduler and the
//! file-backed store.
//!
//! Every file gets a private extent-aligned region: file `f` starts at the
//! first 64 KB boundary past file `f-1`'s last block slot, and block `i` of
//! a file lives at `base(f) + i · BLOCK_SIZE` (each block owns a full 8 KB
//! slot even when the tail is short). Two things fall out of this layout:
//!
//! * sequential reads of one file are *head-contiguous* at the address
//!   level — including across the file's internal extent boundaries —
//!   which is exactly what [`ccm_cluster::SchedQueue`]'s batched policy
//!   rewards;
//! * interleaved streams over different files are never contiguous, which
//!   is the paper's §5 pathology the scheduler exists to fix.

use crate::store::Catalog;
use ccm_core::block::{BLOCK_SIZE, EXTENT_SIZE};
use ccm_core::{BlockId, FileId};
use std::sync::Arc;

/// Byte addresses for every block in a catalog.
#[derive(Debug, Clone)]
pub struct DiskLayout {
    bases: Arc<[u64]>,
    total: u64,
}

impl DiskLayout {
    /// Lay out `catalog`'s files in id order, each in its own
    /// extent-aligned region.
    pub fn new(catalog: &Catalog) -> DiskLayout {
        let mut bases = Vec::with_capacity(catalog.num_files());
        let mut off = 0u64;
        for f in 0..catalog.num_files() {
            bases.push(off);
            let slots = catalog.blocks_of(FileId(f as u32)) as u64 * BLOCK_SIZE;
            off += slots.div_ceil(EXTENT_SIZE) * EXTENT_SIZE;
        }
        DiskLayout {
            bases: bases.into(),
            total: off,
        }
    }

    /// Byte address of a file's region.
    ///
    /// # Panics
    /// Panics if the file is out of range.
    pub fn base_of(&self, file: FileId) -> u64 {
        self.bases[file.0 as usize]
    }

    /// Byte address of one block's slot.
    pub fn addr_of(&self, block: BlockId) -> u64 {
        self.base_of(block.file) + block.index as u64 * BLOCK_SIZE
    }

    /// Total bytes the layout spans (the size of a backing data file).
    pub fn total_bytes(&self) -> u64 {
        self.total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn files_are_extent_aligned_and_disjoint() {
        // 1 block, 8 blocks (exactly one extent), 9 blocks, empty.
        let c = Catalog::new(vec![100, BLOCK_SIZE * 8, BLOCK_SIZE * 8 + 1, 0]);
        let l = DiskLayout::new(&c);
        assert_eq!(l.base_of(FileId(0)), 0);
        assert_eq!(l.base_of(FileId(1)), EXTENT_SIZE);
        assert_eq!(l.base_of(FileId(2)), 2 * EXTENT_SIZE);
        assert_eq!(l.base_of(FileId(3)), 4 * EXTENT_SIZE);
        // The empty file still owns one block slot, extent-rounded.
        assert_eq!(l.total_bytes(), 5 * EXTENT_SIZE);
    }

    #[test]
    fn sequential_blocks_are_address_contiguous() {
        let c = Catalog::new(vec![BLOCK_SIZE * 20]);
        let l = DiskLayout::new(&c);
        for i in 0..19u32 {
            let a = l.addr_of(BlockId::new(FileId(0), i));
            let b = l.addr_of(BlockId::new(FileId(0), i + 1));
            assert_eq!(
                b,
                a + BLOCK_SIZE,
                "block {i} → {} must be contiguous",
                i + 1
            );
        }
    }
}
