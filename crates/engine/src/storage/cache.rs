//! Residency: the byte-budgeted cache of decoded column pages, and the
//! stored-chunk handle whose scans and materializations go through it.

use super::format::ChunkFile;
use super::page::{assemble, column_major, with_index, ColumnPage};
use crate::table::Table;
use std::collections::HashMap;
use std::fmt;
use std::io;
use std::path::Path;
use std::sync::{Arc, Mutex, MutexGuard};

/// Default residency budget: 256 MiB of decoded pages.
pub const DEFAULT_RESIDENCY_BUDGET: u64 = 256 * 1024 * 1024;

/// Byte-budgeted LRU of decoded column pages — the worker's lazy chunk
/// residency. Shared (behind `Arc`) by a [`crate::Database`] and every
/// [`crate::Database::scoped`] view of it, so the message-local catalogs
/// a worker executes against reuse one cache.
///
/// A page is keyed by (chunk-file open, column, row group). Admission
/// evicts least-recently-used pages until the total is back within the
/// budget; a page larger than the whole budget is not admitted at all,
/// so a budget of 0 caches nothing. Pages checked out by running scans
/// stay alive through their `Arc`s regardless of eviction: memory in use
/// is at most the budget plus the pages of the scans in flight. Pages of
/// a detached chunk are never asked for again and age out like any other.
pub struct Residency {
    inner: Mutex<Inner>,
}

/// Running totals of a [`Residency`] since it was created.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ResidencyStats {
    /// Column pages served from memory.
    pub hits: u64,
    /// Column pages that had to be read and decoded.
    pub misses: u64,
    /// Bytes of pages evicted to stay within the budget.
    pub evicted_bytes: u64,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
struct PageKey {
    file: u64,
    col: u32,
    group: u32,
}

impl PageKey {
    fn new(file: &ChunkFile, (col, group): (usize, usize)) -> PageKey {
        PageKey {
            file: file.id,
            col: col as u32,
            group: group as u32,
        }
    }
}

/// Slot index meaning "no slot".
const NIL: usize = usize::MAX;

/// One resident page, linked into the recency list by slot index.
struct Slot {
    key: PageKey,
    /// `None` while the slot sits on the free list.
    page: Option<Arc<ColumnPage>>,
    bytes: u64,
    colder: usize,
    hotter: usize,
}

struct Inner {
    budget: u64,
    bytes: u64,
    map: HashMap<PageKey, usize>,
    slots: Vec<Slot>,
    free: Vec<usize>,
    coldest: usize,
    hottest: usize,
    stats: ResidencyStats,
}

impl Inner {
    fn unlink(&mut self, i: usize) {
        let (colder, hotter) = (self.slots[i].colder, self.slots[i].hotter);
        match colder {
            NIL => self.coldest = hotter,
            c => self.slots[c].hotter = hotter,
        }
        match hotter {
            NIL => self.hottest = colder,
            h => self.slots[h].colder = colder,
        }
    }

    fn link_hottest(&mut self, i: usize) {
        self.slots[i].colder = self.hottest;
        self.slots[i].hotter = NIL;
        match self.hottest {
            NIL => self.coldest = i,
            h => self.slots[h].hotter = i,
        }
        self.hottest = i;
    }

    fn get(&mut self, key: PageKey) -> Option<Arc<ColumnPage>> {
        let Some(&i) = self.map.get(&key) else {
            self.stats.misses += 1;
            return None;
        };
        self.stats.hits += 1;
        self.unlink(i);
        self.link_hottest(i);
        self.slots[i].page.clone()
    }

    fn admit(&mut self, key: PageKey, page: Arc<ColumnPage>) {
        let bytes = page.bytes();
        // Another scan may have admitted the page meanwhile: keep that one.
        if bytes > self.budget || self.map.contains_key(&key) {
            return;
        }
        let slot = Slot {
            key,
            page: Some(page),
            bytes,
            colder: NIL,
            hotter: NIL,
        };
        let i = match self.free.pop() {
            Some(i) => {
                self.slots[i] = slot;
                i
            }
            None => {
                self.slots.push(slot);
                self.slots.len() - 1
            }
        };
        self.map.insert(key, i);
        self.link_hottest(i);
        self.bytes += bytes;
        self.evict();
    }

    fn evict(&mut self) {
        while self.bytes > self.budget && self.coldest != NIL {
            let i = self.coldest;
            self.unlink(i);
            self.map.remove(&self.slots[i].key);
            self.slots[i].page = None;
            self.free.push(i);
            self.bytes -= self.slots[i].bytes;
            self.stats.evicted_bytes += self.slots[i].bytes;
        }
    }
}

impl fmt::Debug for Residency {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.lock();
        f.debug_struct("Residency")
            .field("budget", &inner.budget)
            .field("bytes", &inner.bytes)
            .field("pages", &inner.map.len())
            .finish()
    }
}

impl Residency {
    /// A residency cache with the given byte budget.
    pub fn new(budget_bytes: u64) -> Residency {
        Residency {
            inner: Mutex::new(Inner {
                budget: budget_bytes,
                bytes: 0,
                map: HashMap::new(),
                slots: Vec::new(),
                free: Vec::new(),
                coldest: NIL,
                hottest: NIL,
                stats: ResidencyStats::default(),
            }),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner
            .lock()
            .expect("residency lock poisoned: a cache update panicked")
    }

    /// Changes the budget, evicting down to it.
    pub fn set_budget(&self, budget_bytes: u64) {
        let mut inner = self.lock();
        inner.budget = budget_bytes;
        inner.evict();
    }

    /// Bytes of decoded pages currently resident (never above the budget).
    pub fn resident_bytes(&self) -> u64 {
        self.lock().bytes
    }

    /// Number of resident column pages.
    pub fn resident_pages(&self) -> usize {
        self.lock().map.len()
    }

    /// Hit, miss and eviction totals.
    pub fn stats(&self) -> ResidencyStats {
        self.lock().stats
    }

    /// Drops every resident page (scans holding `Arc`s keep theirs).
    pub fn clear(&self) {
        let mut inner = self.lock();
        let budget = std::mem::replace(&mut inner.budget, 0);
        inner.evict();
        inner.budget = budget;
    }
}

impl Default for Residency {
    fn default() -> Residency {
        Residency::new(DEFAULT_RESIDENCY_BUDGET)
    }
}

/// A chunk table attached from disk: footer plus an empty *shape* table
/// (schema + index definition, zero rows) that query compilation runs
/// against without materializing any row data.
#[derive(Clone, Debug)]
pub struct StoredChunk {
    file: ChunkFile,
    shape: Arc<Table>,
}

impl StoredChunk {
    /// Opens a chunk file as an attachable stored table.
    pub fn open(path: &Path) -> io::Result<StoredChunk> {
        let file = ChunkFile::open(path)?;
        let shape = with_index(Table::new(file.schema().clone()), file.index_column())?;
        Ok(StoredChunk {
            file,
            shape: Arc::new(shape),
        })
    }

    /// The underlying chunk file.
    pub fn file(&self) -> &ChunkFile {
        &self.file
    }

    /// The zero-row shape table (schema + index definition).
    pub fn shape(&self) -> &Arc<Table> {
        &self.shape
    }

    /// The scan table of the stripes `keep` selects, holding the columns
    /// `needed` selects and no others, with its pages taken from
    /// `residency`: resident pages are shared, the rest are read, decoded
    /// and admitted. Also returns how many of the kept stripes were served
    /// without touching the file.
    pub(crate) fn scan_table(
        &self,
        residency: &Residency,
        keep: &[bool],
        needed: &[bool],
    ) -> io::Result<(Table, u64)> {
        let selected = |mask: &[bool]| -> Vec<usize> {
            mask.iter()
                .enumerate()
                .filter_map(|(i, &on)| on.then_some(i))
                .collect()
        };
        let (cols, groups) = (selected(needed), selected(keep));
        let wanted: Vec<(usize, usize)> = column_major(&cols, &groups).collect();

        let mut pages: Vec<Option<Arc<ColumnPage>>> = {
            let mut cache = residency.lock();
            wanted
                .iter()
                .map(|&at| cache.get(PageKey::new(&self.file, at)))
                .collect()
        };
        let missing: Vec<usize> = (0..wanted.len()).filter(|&i| pages[i].is_none()).collect();
        let mut cached = groups.len();
        if !missing.is_empty() {
            let decoded = self.file.decode_pages(missing.iter().map(|&i| wanted[i]))?;
            let mut cache = residency.lock();
            for (&i, page) in missing.iter().zip(decoded) {
                let page = Arc::new(page);
                cache.admit(PageKey::new(&self.file, wanted[i]), Arc::clone(&page));
                pages[i] = Some(page);
            }
            let mut cold: Vec<usize> = missing.iter().map(|&i| wanted[i].1).collect();
            cold.sort_unstable();
            cold.dedup();
            cached -= cold.len();
        }
        let pages: Vec<Arc<ColumnPage>> = pages.into_iter().flatten().collect();
        let table = assemble(&self.file, &cols, &groups, &pages);
        Ok((table, cached as u64))
    }

    /// The fully decoded table with its declared index, assembled from
    /// the residency cache's pages (decoding and admitting the ones not
    /// resident). The table itself is not cached: a second call shares
    /// the pages, not the `Arc`.
    pub fn resident(&self, residency: &Residency) -> io::Result<Arc<Table>> {
        let keep = vec![true; self.file.row_groups()];
        let needed = vec![true; self.file.schema().len()];
        let (table, _) = self.scan_table(residency, &keep, &needed)?;
        with_index(table, self.file.index_column()).map(Arc::new)
    }
}
