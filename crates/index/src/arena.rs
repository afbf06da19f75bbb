//! The **flat-arena snapshot codec**: the whole index — graph CSR, 2-hop
//! labels, category tables, *and* the inverted label indexes — laid out as
//! offset-addressed slabs so a cold replica's install is O(bytes) of
//! bounds-checked reinterpretation instead of a rebuild (no per-edge
//! builder inserts, no per-entry label inserts, no inverted-index grouping
//! pass). This is the one index format the transport ships: its version
//! byte is `2`, and a blob bearing any other version is refused typed.
//!
//! Layout (little endian; all counts `u64`):
//! ```text
//! magic            : 8 bytes = b"KOSRSNP\0"
//! version          : u8 = 2
//! counts           : 9 × u64 — n, m, ncats, lin_tot, lout_tot,
//!                    name_tot, memb_tot, hub_tot, inv_tot
//! edge_offsets     : (n+1) × u32          CSR prefix sums
//! edge_targets     : m × u32              rows strictly increasing
//! edge_weights     : m × u64
//! lin slab         : (n+1)×u64 + lin_tot×(u32 hub + u64 dist)   [`flat`]
//! lout slab        : (n+1)×u64 + lout_tot×(u32 + u64)
//! name_offsets     : (ncats+1) × u64
//! name_bytes       : name_tot bytes       UTF-8 per category
//! memb_offsets     : (ncats+1) × u64
//! memb_verts       : memb_tot × u32       strictly increasing per category
//! inv_cat_offsets  : (ncats+1) × u64      hubs per category
//! inv_hubs         : hub_tot × u32        strictly increasing per category
//! inv_list_offsets : (hub_tot+1) × u64    entries per hub list
//! inv_members      : inv_tot × u32
//! inv_dists        : inv_tot × u64        lists sorted by (dist, member)
//! ```
//!
//! [`FlatSnapshot::validate`] is **total** on adversarial bytes: the full
//! byte length is recomputed from the declared counts with checked
//! arithmetic and compared *before any allocation*, then every section
//! invariant is checked in one no-allocation pass. After that, conversion
//! into owned structures ([`FlatSnapshot::graph`], [`FlatSnapshot::labels`],
//! [`FlatSnapshot::inverted`]) is pure slicing — no sorting, no grouping,
//! no hash-map-per-entry work.
//!
//! [`flat`]: kosr_hoplabel::flat

use bytes::BufMut;
use kosr_graph::{CategoryId, CategoryTable, FxHashMap, Graph, VertexId, Weight};
use kosr_hoplabel::{flat, flat::FlatError, HopLabels};

use crate::bounds::CategoryBounds;
use crate::inverted::{CategoryIndexSet, InvertedLabelIndex};

const MAGIC: &[u8; 8] = b"KOSRSNP\0";

/// The flat-arena snapshot format version byte.
pub const FLAT_SNAPSHOT_VERSION: u8 = 2;

/// Why a snapshot blob could not be decoded.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SnapshotError {
    /// The magic header is absent or wrong.
    BadMagic,
    /// The version byte names a format this build does not understand.
    UnsupportedVersion {
        /// The version byte found in the blob.
        found: u8,
    },
    /// The blob ended before its declared contents.
    Truncated,
    /// The contents are internally inconsistent (out-of-range ids, bad
    /// UTF-8 names, trailing bytes, …).
    Corrupt(&'static str),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::BadMagic => write!(f, "bad snapshot magic"),
            SnapshotError::UnsupportedVersion { found } => write!(
                f,
                "unsupported snapshot version {found} (expected {FLAT_SNAPSHOT_VERSION})"
            ),
            SnapshotError::Truncated => write!(f, "snapshot truncated"),
            SnapshotError::Corrupt(what) => write!(f, "corrupt snapshot: {what}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// Magic opening the optional trailing category-bounds section.
const BOUNDS_MAGIC: &[u8; 4] = b"LBND";

/// Bytes before the first section: magic + version + 9 × u64 counts.
const HEADER_LEN: usize = 8 + 1 + 9 * 8;

impl From<FlatError> for SnapshotError {
    fn from(e: FlatError) -> SnapshotError {
        match e {
            FlatError::Truncated => SnapshotError::Truncated,
            FlatError::Corrupt(what) => SnapshotError::Corrupt(what),
        }
    }
}

/// The `(hub_tot, inv_tot)` counts a snapshot header declares for its
/// inverted-index arenas — the list and entry totals across every
/// category. Only meaningful for a blob that [`decode_snapshot_v2`] has
/// already accepted (the decode proves the header honest); callers use it
/// to report selectivity stats without re-walking the freshly built
/// indexes. `None` when the blob is not a flat-arena snapshot or too
/// short to carry a full header.
pub fn blob_inverted_counts(bytes: &[u8]) -> Option<(u64, u64)> {
    let counts = Counts::read(bytes).ok()?;
    Some((counts.hub_tot, counts.inv_tot))
}

/// The nine declared section counts of a v2 header.
#[derive(Clone, Copy, Debug)]
struct Counts {
    n: u64,
    m: u64,
    ncats: u64,
    lin_tot: u64,
    lout_tot: u64,
    name_tot: u64,
    memb_tot: u64,
    hub_tot: u64,
    inv_tot: u64,
}

impl Counts {
    /// Checks the magic and the version byte, then reads the declared
    /// counts. The version is judged as soon as its byte exists, so a blob
    /// of another format is refused as such even when its header is
    /// shorter than ours.
    fn read(bytes: &[u8]) -> Result<Counts, SnapshotError> {
        if bytes.len() < 8 || &bytes[..8] != MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        match bytes.get(8) {
            Some(&FLAT_SNAPSHOT_VERSION) => {}
            Some(&found) => return Err(SnapshotError::UnsupportedVersion { found }),
            None => return Err(SnapshotError::Truncated),
        }
        if bytes.len() < HEADER_LEN {
            return Err(SnapshotError::Truncated);
        }
        let c = &bytes[9..HEADER_LEN];
        Ok(Counts {
            n: read_u64(c, 0),
            m: read_u64(c, 1),
            ncats: read_u64(c, 2),
            lin_tot: read_u64(c, 3),
            lout_tot: read_u64(c, 4),
            name_tot: read_u64(c, 5),
            memb_tot: read_u64(c, 6),
            hub_tot: read_u64(c, 7),
            inv_tot: read_u64(c, 8),
        })
    }

    /// Byte length of each section, in layout order. `None` when the
    /// arithmetic overflows — a lying header, refused before any
    /// allocation.
    fn section_lens(&self) -> Option<[usize; 14]> {
        let per = |count: u64, elem: u64| -> Option<usize> {
            usize::try_from(count.checked_mul(elem)?).ok()
        };
        let plus1 = |count: u64, elem: u64| per(count.checked_add(1)?, elem);
        Some([
            plus1(self.n, 4)?,                                             // edge_offsets
            per(self.m, 4)?,                                               // edge_targets
            per(self.m, 8)?,                                               // edge_weights
            flat::slab_len(usize::try_from(self.n).ok()?, self.lin_tot)?,  // lin
            flat::slab_len(usize::try_from(self.n).ok()?, self.lout_tot)?, // lout
            plus1(self.ncats, 8)?,                                         // name_offsets
            usize::try_from(self.name_tot).ok()?,                          // name_bytes
            plus1(self.ncats, 8)?,                                         // memb_offsets
            per(self.memb_tot, 4)?,                                        // memb_verts
            plus1(self.ncats, 8)?,                                         // inv_cat_offsets
            per(self.hub_tot, 4)?,                                         // inv_hubs
            plus1(self.hub_tot, 8)?,                                       // inv_list_offsets
            per(self.inv_tot, 4)?,                                         // inv_members
            per(self.inv_tot, 8)?,                                         // inv_dists
        ])
    }

    /// Total blob length implied by the counts.
    fn expected_len(&self) -> Option<usize> {
        self.section_lens()?
            .iter()
            .try_fold(HEADER_LEN, |acc, &s| acc.checked_add(s))
    }
}

#[inline]
fn read_u32(region: &[u8], idx: usize) -> u32 {
    let b: [u8; 4] = region[idx * 4..idx * 4 + 4].try_into().unwrap();
    u32::from_le_bytes(b)
}

#[inline]
fn read_u64(region: &[u8], idx: usize) -> u64 {
    let b: [u8; 8] = region[idx * 8..idx * 8 + 8].try_into().unwrap();
    u64::from_le_bytes(b)
}

/// Checks that `offsets` (a `(k+1) × u64` prefix-sum region) starts at 0,
/// ends at `total`, and never decreases. Returns nothing beyond the typed
/// error — rows are walked by the caller.
fn check_offsets(offsets: &[u8], k: usize, total: u64) -> Result<(), SnapshotError> {
    if read_u64(offsets, 0) != 0 {
        return Err(SnapshotError::Corrupt("section offsets do not start at 0"));
    }
    if read_u64(offsets, k) != total {
        return Err(SnapshotError::Corrupt(
            "section offsets do not end at the declared total",
        ));
    }
    let mut prev = 0u64;
    for i in 1..=k {
        let next = read_u64(offsets, i);
        if next < prev || next > total {
            return Err(SnapshotError::Corrupt("section offsets not monotone"));
        }
        prev = next;
    }
    Ok(())
}

/// A validated zero-copy view over a snapshot blob.
///
/// Construction ([`FlatSnapshot::validate`]) is total: any byte string —
/// truncated, padded, bit-flipped, or adversarially crafted — yields a
/// typed [`SnapshotError`], never a panic and never an attacker-sized
/// allocation. Every accessor on a constructed view is a pure slice walk.
pub struct FlatSnapshot<'a> {
    n: usize,
    m: usize,
    ncats: usize,
    lin_tot: u64,
    lout_tot: u64,
    edge_offsets: &'a [u8],
    edge_targets: &'a [u8],
    edge_weights: &'a [u8],
    lin: &'a [u8],
    lout: &'a [u8],
    name_offsets: &'a [u8],
    name_bytes: &'a [u8],
    memb_offsets: &'a [u8],
    memb_verts: &'a [u8],
    inv_cat_offsets: &'a [u8],
    inv_hubs: &'a [u8],
    inv_list_offsets: &'a [u8],
    inv_members: &'a [u8],
    inv_dists: &'a [u8],
}

impl<'a> FlatSnapshot<'a> {
    /// Parses and fully validates a v2 blob without building anything.
    pub fn validate(bytes: &'a [u8]) -> Result<FlatSnapshot<'a>, SnapshotError> {
        let view = FlatSnapshot::validate_structure(bytes)?;
        view.check_edges(view.m as u64)?;
        flat::validate_sets(view.n, view.lin_tot, view.n as u32, view.lin)?;
        flat::validate_sets(view.n, view.lout_tot, view.n as u32, view.lout)?;
        view.check_categories()?;
        view.check_inverted()?;
        Ok(view)
    }

    /// The structural half of [`FlatSnapshot::validate`]: header, counts,
    /// whole-blob length (checked arithmetic, before any allocation),
    /// section slicing, and every **offset array** — everything the
    /// materialisers need to be panic-free — but none of the per-entry
    /// content walks. The fused install path ([`decode_snapshot_v2`])
    /// starts here and performs the content checks *while copying*, so the
    /// entry arenas are walked once instead of twice.
    fn validate_structure(bytes: &'a [u8]) -> Result<FlatSnapshot<'a>, SnapshotError> {
        let counts = Counts::read(bytes)?;
        // Vertex and edge ids are u32 throughout the index layer; a header
        // claiming more is either lying or a world this build cannot hold.
        if counts.n > u32::MAX as u64 || counts.m > u32::MAX as u64 {
            return Err(SnapshotError::Corrupt("vertex/edge count exceeds u32"));
        }
        // The whole-blob length check comes before anything else touches
        // the counts: a crafted header cannot drive an allocation, and a
        // short blob is reported as truncation rather than corruption.
        let lens = counts.section_lens().ok_or(SnapshotError::Truncated)?;
        let expect = counts.expected_len().ok_or(SnapshotError::Truncated)?;
        if bytes.len() < expect {
            return Err(SnapshotError::Truncated);
        }
        if bytes.len() > expect {
            return Err(SnapshotError::Corrupt("trailing bytes after snapshot"));
        }

        let mut cursor = HEADER_LEN;
        let mut take = |len: usize| {
            let s = &bytes[cursor..cursor + len];
            cursor += len;
            s
        };
        let view = FlatSnapshot {
            n: counts.n as usize,
            m: counts.m as usize,
            ncats: usize::try_from(counts.ncats).map_err(|_| SnapshotError::Truncated)?,
            lin_tot: counts.lin_tot,
            lout_tot: counts.lout_tot,
            edge_offsets: take(lens[0]),
            edge_targets: take(lens[1]),
            edge_weights: take(lens[2]),
            lin: take(lens[3]),
            lout: take(lens[4]),
            name_offsets: take(lens[5]),
            name_bytes: take(lens[6]),
            memb_offsets: take(lens[7]),
            memb_verts: take(lens[8]),
            inv_cat_offsets: take(lens[9]),
            inv_hubs: take(lens[10]),
            inv_list_offsets: take(lens[11]),
            inv_members: take(lens[12]),
            inv_dists: take(lens[13]),
        };
        // The offset arrays gate every downstream slice: checking them
        // here makes all materialisers total even before the content
        // walks run. (They are O(n + ncats + hub_tot), not per-entry.)
        check_offsets(view.name_offsets, view.ncats, counts.name_tot)?;
        check_offsets(view.memb_offsets, view.ncats, counts.memb_tot)?;
        check_offsets(view.inv_cat_offsets, view.ncats, counts.hub_tot)?;
        check_offsets(
            view.inv_list_offsets,
            usize::try_from(counts.hub_tot).map_err(|_| SnapshotError::Truncated)?,
            counts.inv_tot,
        )?;
        Ok(view)
    }

    /// Number of vertices `n`.
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// Number of edges `m`.
    pub fn num_edges(&self) -> usize {
        self.m
    }

    /// Number of categories.
    pub fn num_categories(&self) -> usize {
        self.ncats
    }

    fn check_edges(&self, m: u64) -> Result<(), SnapshotError> {
        if read_u32(self.edge_offsets, 0) != 0 || read_u32(self.edge_offsets, self.n) as u64 != m {
            return Err(SnapshotError::Corrupt("edge offsets do not span the edges"));
        }
        let mut prev = 0u32;
        for u in 0..self.n {
            let next = read_u32(self.edge_offsets, u + 1);
            if next < prev || next as u64 > m {
                return Err(SnapshotError::Corrupt("edge offsets not monotone"));
            }
            let mut prev_t: Option<u32> = None;
            for e in prev as usize..next as usize {
                let t = read_u32(self.edge_targets, e);
                if t as usize >= self.n {
                    return Err(SnapshotError::Corrupt("edge target out of range"));
                }
                if t as usize == u {
                    return Err(SnapshotError::Corrupt("self-loop edge"));
                }
                if prev_t.is_some_and(|p| p >= t) {
                    return Err(SnapshotError::Corrupt("adjacency row not sorted"));
                }
                prev_t = Some(t);
            }
            prev = next;
        }
        Ok(())
    }

    /// Per-entry category checks; the offset arrays were already checked
    /// by [`FlatSnapshot::validate_structure`].
    fn check_categories(&self) -> Result<(), SnapshotError> {
        for c in 0..self.ncats {
            let (lo, hi) = (
                read_u64(self.name_offsets, c) as usize,
                read_u64(self.name_offsets, c + 1) as usize,
            );
            if std::str::from_utf8(&self.name_bytes[lo..hi]).is_err() {
                return Err(SnapshotError::Corrupt("category name is not UTF-8"));
            }
            let (lo, hi) = (
                read_u64(self.memb_offsets, c) as usize,
                read_u64(self.memb_offsets, c + 1) as usize,
            );
            let mut prev: Option<u32> = None;
            for e in lo..hi {
                let v = read_u32(self.memb_verts, e);
                if v as usize >= self.n {
                    return Err(SnapshotError::Corrupt("category member out of range"));
                }
                if prev.is_some_and(|p| p >= v) {
                    return Err(SnapshotError::Corrupt("category members not sorted"));
                }
                prev = Some(v);
            }
        }
        Ok(())
    }

    /// Per-entry inverted-index checks; the offset arrays were already
    /// checked by [`FlatSnapshot::validate_structure`].
    fn check_inverted(&self) -> Result<(), SnapshotError> {
        for c in 0..self.ncats {
            let (lo, hi) = (
                read_u64(self.inv_cat_offsets, c) as usize,
                read_u64(self.inv_cat_offsets, c + 1) as usize,
            );
            let mut prev: Option<u32> = None;
            for h in lo..hi {
                let hub = read_u32(self.inv_hubs, h);
                if hub as usize >= self.n {
                    return Err(SnapshotError::Corrupt("inverted hub out of range"));
                }
                if prev.is_some_and(|p| p >= hub) {
                    return Err(SnapshotError::Corrupt("inverted hubs not sorted"));
                }
                prev = Some(hub);
                let (elo, ehi) = (
                    read_u64(self.inv_list_offsets, h) as usize,
                    read_u64(self.inv_list_offsets, h + 1) as usize,
                );
                let mut prev_e: Option<(u64, u32)> = None;
                for e in elo..ehi {
                    let member = read_u32(self.inv_members, e);
                    let dist = read_u64(self.inv_dists, e);
                    if member as usize >= self.n {
                        return Err(SnapshotError::Corrupt("inverted member out of range"));
                    }
                    if prev_e.is_some_and(|p| p > (dist, member)) {
                        return Err(SnapshotError::Corrupt(
                            "inverted list not sorted by (dist, member)",
                        ));
                    }
                    prev_e = Some((dist, member));
                }
            }
        }
        Ok(())
    }

    /// Materialises the graph: the forward CSR is a straight copy of three
    /// arenas (the backward CSR is derived by one counting sort inside
    /// [`Graph::try_from_csr`]); the category table is sliced per category.
    pub fn graph(&self) -> Result<Graph, SnapshotError> {
        let out_offsets: Vec<u32> = self
            .edge_offsets
            .chunks_exact(4)
            .map(|b| u32::from_le_bytes(b.try_into().unwrap()))
            .collect();
        let out_targets: Vec<VertexId> = self
            .edge_targets
            .chunks_exact(4)
            .map(|b| VertexId(u32::from_le_bytes(b.try_into().unwrap())))
            .collect();
        let out_weights: Vec<Weight> = self
            .edge_weights
            .chunks_exact(8)
            .map(|b| Weight::from_le_bytes(b.try_into().unwrap()))
            .collect();
        let mut names = Vec::with_capacity(self.ncats);
        let mut per_category = Vec::with_capacity(self.ncats);
        for c in 0..self.ncats {
            let (lo, hi) = (
                read_u64(self.name_offsets, c) as usize,
                read_u64(self.name_offsets, c + 1) as usize,
            );
            let name = std::str::from_utf8(&self.name_bytes[lo..hi])
                .map_err(|_| SnapshotError::Corrupt("category name is not UTF-8"))?;
            names.push(name.to_owned());
            let (lo, hi) = (
                read_u64(self.memb_offsets, c) as usize,
                read_u64(self.memb_offsets, c + 1) as usize,
            );
            let members: Vec<VertexId> = self.memb_verts[lo * 4..hi * 4]
                .chunks_exact(4)
                .map(|b| VertexId(u32::from_le_bytes(b.try_into().unwrap())))
                .collect();
            per_category.push(members);
        }
        let categories = CategoryTable::from_parts(self.n, names, per_category)
            .map_err(SnapshotError::Corrupt)?;
        Graph::try_from_csr(self.n, out_offsets, out_targets, out_weights, categories)
            .map_err(SnapshotError::Corrupt)
    }

    /// Materialises the 2-hop labels by slicing both slabs row-wise — no
    /// per-entry inserts, no sorting.
    pub fn labels(&self) -> Result<HopLabels, SnapshotError> {
        let lin = flat::decode_sets(self.n, self.lin_tot, self.lin)?;
        let lout = flat::decode_sets(self.n, self.lout_tot, self.lout)?;
        Ok(HopLabels::from_parts(lin, lout))
    }

    /// Materialises the inverted label indexes straight from the arenas —
    /// the grouping pass a rebuild would pay is already baked into the blob,
    /// and the per-list `(dist, member)` order was enforced by
    /// [`FlatSnapshot::validate`], so no sorting runs here either.
    pub fn inverted(&self) -> CategoryIndexSet {
        let mut indexes = Vec::with_capacity(self.ncats);
        for c in 0..self.ncats {
            let (lo, hi) = (
                read_u64(self.inv_cat_offsets, c) as usize,
                read_u64(self.inv_cat_offsets, c + 1) as usize,
            );
            let mut lists: FxHashMap<VertexId, Vec<(VertexId, Weight)>> = FxHashMap::default();
            lists.reserve(hi - lo);
            for h in lo..hi {
                let hub = VertexId(read_u32(self.inv_hubs, h));
                let (elo, ehi) = (
                    read_u64(self.inv_list_offsets, h) as usize,
                    read_u64(self.inv_list_offsets, h + 1) as usize,
                );
                let entries: Vec<(VertexId, Weight)> = (elo..ehi)
                    .map(|e| {
                        (
                            VertexId(read_u32(self.inv_members, e)),
                            read_u64(self.inv_dists, e),
                        )
                    })
                    .collect();
                lists.insert(hub, entries);
            }
            let num_members =
                (read_u64(self.memb_offsets, c + 1) - read_u64(self.memb_offsets, c)) as usize;
            indexes.push(InvertedLabelIndex::from_sorted_lists(lists, num_members));
        }
        CategoryIndexSet::from_indexes(indexes)
    }

    /// Single-pass fusion of [`FlatSnapshot::check_inverted`] and
    /// [`FlatSnapshot::inverted`]: every hub/member/ordering invariant is
    /// checked while the lists are copied, walking the entry arenas once.
    fn inverted_checked(&self) -> Result<CategoryIndexSet, SnapshotError> {
        let mut indexes = Vec::with_capacity(self.ncats);
        for c in 0..self.ncats {
            let (lo, hi) = (
                read_u64(self.inv_cat_offsets, c) as usize,
                read_u64(self.inv_cat_offsets, c + 1) as usize,
            );
            let mut lists: FxHashMap<VertexId, Vec<(VertexId, Weight)>> = FxHashMap::default();
            lists.reserve(hi - lo);
            let mut prev_hub: Option<u32> = None;
            for h in lo..hi {
                let hub = read_u32(self.inv_hubs, h);
                if hub as usize >= self.n {
                    return Err(SnapshotError::Corrupt("inverted hub out of range"));
                }
                if prev_hub.is_some_and(|p| p >= hub) {
                    return Err(SnapshotError::Corrupt("inverted hubs not sorted"));
                }
                prev_hub = Some(hub);
                let (elo, ehi) = (
                    read_u64(self.inv_list_offsets, h) as usize,
                    read_u64(self.inv_list_offsets, h + 1) as usize,
                );
                let mut entries = Vec::with_capacity(ehi - elo);
                let mut prev_e: Option<(u64, u32)> = None;
                for e in elo..ehi {
                    let member = read_u32(self.inv_members, e);
                    let dist = read_u64(self.inv_dists, e);
                    if member as usize >= self.n {
                        return Err(SnapshotError::Corrupt("inverted member out of range"));
                    }
                    if prev_e.is_some_and(|p| p > (dist, member)) {
                        return Err(SnapshotError::Corrupt(
                            "inverted list not sorted by (dist, member)",
                        ));
                    }
                    prev_e = Some((dist, member));
                    entries.push((VertexId(member), dist));
                }
                lists.insert(VertexId(hub), entries);
            }
            let num_members =
                (read_u64(self.memb_offsets, c + 1) - read_u64(self.memb_offsets, c)) as usize;
            indexes.push(InvertedLabelIndex::from_sorted_lists(lists, num_members));
        }
        Ok(CategoryIndexSet::from_indexes(indexes))
    }
}

/// Serializes a full index into one flat-arena blob. Deterministic:
/// the same index always produces the same bytes (hubs are emitted in
/// ascending id order, not hash order).
pub fn encode_snapshot_v2(
    graph: &Graph,
    labels: &HopLabels,
    inverted: &CategoryIndexSet,
) -> Vec<u8> {
    let n = graph.num_vertices();
    let m = graph.num_edges();
    let cats = graph.categories();
    let ncats = cats.num_categories();
    let lin_tot = flat::entry_count(labels.lin_sets());
    let lout_tot = flat::entry_count(labels.lout_sets());
    let name_tot: u64 = (0..ncats)
        .map(|c| cats.name(CategoryId(c as u32)).len() as u64)
        .sum();
    let memb_tot: u64 = (0..ncats)
        .map(|c| cats.vertices_of(CategoryId(c as u32)).len() as u64)
        .sum();
    let hub_tot: u64 = (0..ncats)
        .map(|c| inverted.category(CategoryId(c as u32)).num_hubs() as u64)
        .sum();
    let inv_tot: u64 = (0..ncats)
        .map(|c| inverted.category(CategoryId(c as u32)).num_entries() as u64)
        .sum();
    let counts = Counts {
        n: n as u64,
        m: m as u64,
        ncats: ncats as u64,
        lin_tot,
        lout_tot,
        name_tot,
        memb_tot,
        hub_tot,
        inv_tot,
    };
    let mut out = Vec::with_capacity(counts.expected_len().expect("snapshot fits memory"));
    out.put_slice(MAGIC);
    out.put_u8(FLAT_SNAPSHOT_VERSION);
    for c in [
        counts.n,
        counts.m,
        counts.ncats,
        counts.lin_tot,
        counts.lout_tot,
        counts.name_tot,
        counts.memb_tot,
        counts.hub_tot,
        counts.inv_tot,
    ] {
        out.put_u64_le(c);
    }

    // Edges.
    let mut off = 0u32;
    out.put_u32_le(0);
    for u in graph.vertices() {
        off += graph.out_degree(u) as u32;
        out.put_u32_le(off);
    }
    for u in graph.vertices() {
        for (t, _) in graph.out_edges(u) {
            out.put_u32_le(t.0);
        }
    }
    for u in graph.vertices() {
        for (_, w) in graph.out_edges(u) {
            out.put_u64_le(w);
        }
    }

    // Labels.
    flat::encode_sets(labels.lin_sets(), &mut out);
    flat::encode_sets(labels.lout_sets(), &mut out);

    // Categories: names then members, both offset-addressed.
    let mut off = 0u64;
    out.put_u64_le(0);
    for c in 0..ncats {
        off += cats.name(CategoryId(c as u32)).len() as u64;
        out.put_u64_le(off);
    }
    for c in 0..ncats {
        out.put_slice(cats.name(CategoryId(c as u32)).as_bytes());
    }
    let mut off = 0u64;
    out.put_u64_le(0);
    for c in 0..ncats {
        off += cats.vertices_of(CategoryId(c as u32)).len() as u64;
        out.put_u64_le(off);
    }
    for c in 0..ncats {
        for &v in cats.vertices_of(CategoryId(c as u32)) {
            out.put_u32_le(v.0);
        }
    }

    // Inverted indexes: hubs ascending per category for determinism.
    let sorted_hubs: Vec<Vec<VertexId>> = (0..ncats)
        .map(|c| {
            let mut hubs: Vec<VertexId> = inverted
                .category(CategoryId(c as u32))
                .iter_lists()
                .map(|(h, _)| h)
                .collect();
            hubs.sort_unstable();
            hubs
        })
        .collect();
    let mut off = 0u64;
    out.put_u64_le(0);
    for hubs in &sorted_hubs {
        off += hubs.len() as u64;
        out.put_u64_le(off);
    }
    for hubs in &sorted_hubs {
        for h in hubs {
            out.put_u32_le(h.0);
        }
    }
    let mut off = 0u64;
    out.put_u64_le(0);
    for (c, hubs) in sorted_hubs.iter().enumerate() {
        let il = inverted.category(CategoryId(c as u32));
        for &h in hubs {
            off += il.list(h).map_or(0, <[_]>::len) as u64;
            out.put_u64_le(off);
        }
    }
    for (c, hubs) in sorted_hubs.iter().enumerate() {
        let il = inverted.category(CategoryId(c as u32));
        for &h in hubs {
            for &(member, _) in il.list(h).unwrap_or(&[]) {
                out.put_u32_le(member.0);
            }
        }
    }
    for (c, hubs) in sorted_hubs.iter().enumerate() {
        let il = inverted.category(CategoryId(c as u32));
        for &h in hubs {
            for &(_, d) in il.list(h).unwrap_or(&[]) {
                out.put_u64_le(d);
            }
        }
    }
    debug_assert_eq!(out.len(), counts.expected_len().unwrap());
    out
}

/// Label-entry count above which [`decode_snapshot_v2`] fans the section
/// copies out over scoped threads (given spare cores). Cold-start decode
/// is memory-bandwidth bound, and after structural validation the graph,
/// `Lin`, `Lout`, and inverted arenas materialise independently — but a
/// thread spawn costs tens of microseconds, so tiny snapshots (and
/// single-core hosts) stay on the caller's thread.
const PARALLEL_DECODE_ENTRIES: u64 = 1 << 15;

/// Decodes a v2 blob into its three owned parts.
///
/// Structural validation (header, counts, whole-length, offset arrays)
/// runs up front; the per-entry invariants are checked **while copying**
/// (`decode_sets_checked`, [`FlatSnapshot::inverted_checked`],
/// `Graph::try_from_csr`), so every arena is walked exactly once. Accepts
/// and refuses exactly the same blobs as [`FlatSnapshot::validate`]
/// followed by the plain materialisers.
pub fn decode_snapshot_v2(
    bytes: &[u8],
) -> Result<(Graph, HopLabels, CategoryIndexSet), SnapshotError> {
    let view = FlatSnapshot::validate_structure(bytes)?;
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    if cores <= 1 || view.lin_tot + view.lout_tot < PARALLEL_DECODE_ENTRIES {
        let graph = view.graph()?;
        let lin = flat::decode_sets_checked(view.n, view.lin_tot, view.n as u32, view.lin)?;
        let lout = flat::decode_sets_checked(view.n, view.lout_tot, view.n as u32, view.lout)?;
        let inverted = view.inverted_checked()?;
        return Ok((graph, HopLabels::from_parts(lin, lout), inverted));
    }
    let view = &view;
    std::thread::scope(|s| {
        let graph = s.spawn(move || view.graph());
        let lin = s.spawn(move || {
            flat::decode_sets_checked(view.n, view.lin_tot, view.n as u32, view.lin)
        });
        let lout = s.spawn(move || {
            flat::decode_sets_checked(view.n, view.lout_tot, view.n as u32, view.lout)
        });
        let inverted = view.inverted_checked()?;
        let graph = graph.join().expect("graph decode thread panicked")?;
        let lin = lin.join().expect("lin decode thread panicked")?;
        let lout = lout.join().expect("lout decode thread panicked")?;
        Ok((graph, HopLabels::from_parts(lin, lout), inverted))
    })
}

/// Byte length of the 14 **core** sections of a v2 blob (header included),
/// recomputed from the header counts with checked arithmetic. Anything
/// beyond this offset is the optional trailing bounds section.
fn core_len(bytes: &[u8]) -> Result<usize, SnapshotError> {
    Counts::read(bytes)?
        .expected_len()
        .ok_or(SnapshotError::Truncated)
}

/// Serializes a full index **plus its category-pair lower-bound tables**
/// into one v2 blob: the 14 core sections of [`encode_snapshot_v2`]
/// followed by a self-describing trailing section
///
/// ```text
/// bounds magic : 4 bytes = b"LBND"
/// ncats_b      : u64   must equal the header's ncats
/// linmin_tot   : u64   entries across the per-category virtual Lin sets
/// loutmin_tot  : u64   entries across the per-category virtual Lout sets
/// lin_min slab : flat slab over ncats sets                       [`flat`]
/// lout_min slab: flat slab over ncats sets
/// table        : ncats² × u64, row-major
/// ```
///
/// Core-only decoders ([`decode_snapshot_v2`]) keep refusing the longer
/// blob as trailing garbage; bounds-aware installs use
/// [`decode_snapshot_v2_full`].
pub fn encode_snapshot_v2_with_bounds(
    graph: &Graph,
    labels: &HopLabels,
    inverted: &CategoryIndexSet,
    bounds: &CategoryBounds,
) -> Vec<u8> {
    let mut out = encode_snapshot_v2(graph, labels, inverted);
    out.put_slice(BOUNDS_MAGIC);
    out.put_u64_le(bounds.num_categories() as u64);
    out.put_u64_le(flat::entry_count(bounds.lin_min_sets()));
    out.put_u64_le(flat::entry_count(bounds.lout_min_sets()));
    flat::encode_sets(bounds.lin_min_sets(), &mut out);
    flat::encode_sets(bounds.lout_min_sets(), &mut out);
    for &w in bounds.table_slice() {
        out.put_u64_le(w);
    }
    out
}

/// Decodes the trailing bounds section. `ncats` and `n` come from the
/// already-validated core (the category table and vertex count the section
/// must agree with); any disagreement is a typed [`SnapshotError`], never
/// a panic.
fn decode_bounds_section(
    region: &[u8],
    ncats: usize,
    n: usize,
) -> Result<CategoryBounds, SnapshotError> {
    const BOUNDS_HEADER: usize = 4 + 3 * 8;
    if region.len() < BOUNDS_HEADER {
        return Err(SnapshotError::Truncated);
    }
    if &region[..4] != BOUNDS_MAGIC {
        return Err(SnapshotError::Corrupt("bounds section magic mismatch"));
    }
    let c = &region[4..BOUNDS_HEADER];
    let ncats_b = read_u64(c, 0);
    if ncats_b != ncats as u64 {
        return Err(SnapshotError::Corrupt(
            "bounds section category count disagrees with category table",
        ));
    }
    let lin_tot = read_u64(c, 1);
    let lout_tot = read_u64(c, 2);
    // Whole-section length from the declared counts, checked arithmetic
    // first — a lying header cannot drive an allocation.
    let lin_len = flat::slab_len(ncats, lin_tot).ok_or(SnapshotError::Truncated)?;
    let lout_len = flat::slab_len(ncats, lout_tot).ok_or(SnapshotError::Truncated)?;
    let table_len = ncats
        .checked_mul(ncats)
        .and_then(|cells| cells.checked_mul(8))
        .ok_or(SnapshotError::Truncated)?;
    let expect = [lin_len, lout_len, table_len]
        .iter()
        .try_fold(BOUNDS_HEADER, |acc, &s| acc.checked_add(s))
        .ok_or(SnapshotError::Truncated)?;
    if region.len() < expect {
        return Err(SnapshotError::Truncated);
    }
    if region.len() > expect {
        return Err(SnapshotError::Corrupt(
            "trailing bytes after bounds section",
        ));
    }
    let lin_region = &region[BOUNDS_HEADER..BOUNDS_HEADER + lin_len];
    let lout_region = &region[BOUNDS_HEADER + lin_len..BOUNDS_HEADER + lin_len + lout_len];
    let lin_min = flat::decode_sets_checked(ncats, lin_tot, n as u32, lin_region)?;
    let lout_min = flat::decode_sets_checked(ncats, lout_tot, n as u32, lout_region)?;
    let table_region = &region[expect - table_len..];
    let table: Vec<Weight> = (0..ncats * ncats)
        .map(|i| read_u64(table_region, i))
        .collect();
    CategoryBounds::from_parts(lin_min, lout_min, table)
        .ok_or(SnapshotError::Corrupt("bounds section shape mismatch"))
}

/// [`decode_snapshot_v2`] extended with the optional trailing bounds
/// section: `Ok(..., Some(bounds))` when the blob carries one (validated
/// against the decoded category table), `Ok(..., None)` for a plain core
/// blob (the installer rebuilds bounds from the labels).
#[allow(clippy::type_complexity)]
pub fn decode_snapshot_v2_full(
    bytes: &[u8],
) -> Result<(Graph, HopLabels, CategoryIndexSet, Option<CategoryBounds>), SnapshotError> {
    let core = core_len(bytes)?;
    if bytes.len() < core {
        return Err(SnapshotError::Truncated);
    }
    let (graph, labels, inverted) = decode_snapshot_v2(&bytes[..core])?;
    let bounds = if bytes.len() > core {
        Some(decode_bounds_section(
            &bytes[core..],
            graph.categories().num_categories(),
            graph.num_vertices(),
        )?)
    } else {
        None
    };
    Ok((graph, labels, inverted, bounds))
}

#[cfg(test)]
mod tests {
    use super::*;
    use kosr_graph::GraphBuilder;
    use kosr_hoplabel::HubOrder;

    fn v(i: u32) -> VertexId {
        VertexId(i)
    }

    /// A small world with two categories, one empty category, and a
    /// non-trivial label set.
    fn world() -> (Graph, HopLabels, CategoryIndexSet) {
        let mut b = GraphBuilder::new(8);
        for i in 0..7u32 {
            b.add_edge(v(i), v(i + 1), (i % 3 + 1) as u64);
        }
        b.add_edge(v(7), v(0), 2);
        b.add_edge(v(0), v(4), 9);
        let ca = b.categories_mut().add_category("MA");
        let cb = b.categories_mut().add_category("RE");
        b.categories_mut().add_category("EMPTY");
        for i in [1u32, 3, 6] {
            b.categories_mut().insert(v(i), ca);
        }
        for i in [2u32, 5] {
            b.categories_mut().insert(v(i), cb);
        }
        let g = b.build();
        let labels = kosr_hoplabel::build(&g, &HubOrder::Degree);
        let inverted = CategoryIndexSet::build(&labels, g.categories());
        (g, labels, inverted)
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let (g, labels, inverted) = world();
        let blob = encode_snapshot_v2(&g, &labels, &inverted);
        assert_eq!(blob[8], FLAT_SNAPSHOT_VERSION);
        let (g2, labels2, inverted2) = decode_snapshot_v2(&blob).unwrap();
        assert_eq!(g2.num_vertices(), g.num_vertices());
        assert_eq!(g2.num_edges(), g.num_edges());
        for u in g.vertices() {
            assert_eq!(
                g2.out_edges(u).collect::<Vec<_>>(),
                g.out_edges(u).collect::<Vec<_>>()
            );
            assert_eq!(
                g2.in_edges(u).collect::<Vec<_>>(),
                g.in_edges(u).collect::<Vec<_>>()
            );
            assert_eq!(
                g2.categories().categories_of(u),
                g.categories().categories_of(u)
            );
        }
        for s in g.vertices() {
            for t in g.vertices() {
                assert_eq!(labels2.distance(s, t), labels.distance(s, t));
            }
        }
        assert_eq!(inverted2.num_categories(), inverted.num_categories());
        for c in 0..inverted.num_categories() {
            let c = CategoryId(c as u32);
            let (a, b) = (inverted.category(c), inverted2.category(c));
            assert_eq!(a.num_members(), b.num_members());
            assert_eq!(a.num_entries(), b.num_entries());
            assert_eq!(a.num_hubs(), b.num_hubs());
            for (h, list) in a.iter_lists() {
                assert_eq!(b.list(h), Some(list));
            }
        }
        // Deterministic re-encode.
        assert_eq!(encode_snapshot_v2(&g2, &labels2, &inverted2), blob);
    }

    #[test]
    fn truncation_is_typed_at_every_cut() {
        let (g, labels, inverted) = world();
        let blob = encode_snapshot_v2(&g, &labels, &inverted);
        for cut in 0..blob.len() {
            assert!(
                FlatSnapshot::validate(&blob[..cut]).is_err(),
                "cut={cut}: truncated blob validated"
            );
        }
    }

    #[test]
    fn trailing_bytes_are_corrupt() {
        let (g, labels, inverted) = world();
        let mut blob = encode_snapshot_v2(&g, &labels, &inverted);
        blob.push(0);
        assert!(matches!(
            FlatSnapshot::validate(&blob),
            Err(SnapshotError::Corrupt(_))
        ));
    }

    #[test]
    fn lying_counts_refused_before_allocating() {
        let (g, labels, inverted) = world();
        let blob = encode_snapshot_v2(&g, &labels, &inverted);
        // Each of the nine counts in turn claims u64::MAX: the length
        // check must refuse without ever allocating toward the claim.
        for slot in 0..9 {
            let mut bad = blob.clone();
            bad[9 + slot * 8..9 + slot * 8 + 8].copy_from_slice(&u64::MAX.to_le_bytes());
            match FlatSnapshot::validate(&bad) {
                Err(SnapshotError::Truncated) | Err(SnapshotError::Corrupt(_)) => {}
                Err(other) => panic!("slot={slot}: unexpected {other:?}"),
                Ok(_) => panic!("slot={slot}: lying count validated"),
            }
        }
    }

    #[test]
    fn bad_magic_and_version_are_typed() {
        let (g, labels, inverted) = world();
        let mut blob = encode_snapshot_v2(&g, &labels, &inverted);
        let mut wrong = blob.clone();
        wrong[0] ^= 0xFF;
        assert!(matches!(
            FlatSnapshot::validate(&wrong),
            Err(SnapshotError::BadMagic)
        ));
        blob[8] = 99;
        assert!(matches!(
            FlatSnapshot::validate(&blob),
            Err(SnapshotError::UnsupportedVersion { found: 99 })
        ));
    }

    #[test]
    fn corrupt_content_is_typed() {
        let (g, labels, inverted) = world();
        let blob = encode_snapshot_v2(&g, &labels, &inverted);
        let n = g.num_vertices();
        // First edge target out of range.
        let target_base = HEADER_LEN + (n + 1) * 4;
        let mut bad = blob.clone();
        bad[target_base..target_base + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            FlatSnapshot::validate(&bad),
            Err(SnapshotError::Corrupt(_))
        ));
        // Edge offsets that do not start at 0.
        let mut bad = blob.clone();
        bad[HEADER_LEN..HEADER_LEN + 4].copy_from_slice(&1u32.to_le_bytes());
        assert!(matches!(
            FlatSnapshot::validate(&bad),
            Err(SnapshotError::Corrupt(_))
        ));
        // A self-loop: rewrite the first target to its own source (vertex
        // 0's first out-edge targets vertex 1 in `world`).
        let mut bad = blob;
        bad[target_base..target_base + 4].copy_from_slice(&0u32.to_le_bytes());
        assert!(matches!(
            FlatSnapshot::validate(&bad),
            Err(SnapshotError::Corrupt(_))
        ));
    }

    #[test]
    fn bounds_section_roundtrips_and_core_decoders_stay_strict() {
        let (g, labels, inverted) = world();
        let bounds = CategoryBounds::build(&labels, g.categories());
        let blob = encode_snapshot_v2_with_bounds(&g, &labels, &inverted, &bounds);
        let (g2, labels2, _, back) = decode_snapshot_v2_full(&blob).unwrap();
        assert_eq!(back.as_ref(), Some(&bounds));
        assert_eq!(g2.num_edges(), g.num_edges());
        assert_eq!(labels2.num_entries(), labels.num_entries());
        // A core-only blob reports no bounds instead of failing.
        let core = encode_snapshot_v2(&g, &labels, &inverted);
        let (_, _, _, none) = decode_snapshot_v2_full(&core).unwrap();
        assert!(none.is_none());
        // The strict core decoder keeps refusing the longer blob.
        assert!(matches!(
            decode_snapshot_v2(&blob),
            Err(SnapshotError::Corrupt(_))
        ));
    }

    #[test]
    fn bounds_section_count_mismatch_is_typed() {
        let (g, labels, inverted) = world();
        let bounds = CategoryBounds::build(&labels, g.categories());
        let core = encode_snapshot_v2(&g, &labels, &inverted);
        let blob = encode_snapshot_v2_with_bounds(&g, &labels, &inverted, &bounds);
        // Lie about the category count inside the bounds section.
        let mut bad = blob.clone();
        let pos = core.len() + 4;
        bad[pos..pos + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        match decode_snapshot_v2_full(&bad) {
            Err(SnapshotError::Corrupt(msg)) => {
                assert!(msg.contains("disagrees with category table"), "{msg}")
            }
            other => panic!("unexpected: {other:?}"),
        }
        // A lying entry total is refused by the length check, not an
        // allocation attempt.
        let mut bad = blob.clone();
        let pos = core.len() + 12;
        bad[pos..pos + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(
            decode_snapshot_v2_full(&bad),
            Err(SnapshotError::Truncated)
        ));
        // Wrong section magic.
        let mut bad = blob.clone();
        bad[core.len()] ^= 0xFF;
        assert!(matches!(
            decode_snapshot_v2_full(&bad),
            Err(SnapshotError::Corrupt(_))
        ));
        // Truncation anywhere inside the section is typed, never a panic
        // (a cut at exactly the core length is a valid bounds-less blob).
        for cut in core.len() + 1..blob.len() {
            match decode_snapshot_v2_full(&blob[..cut]) {
                Err(SnapshotError::Truncated | SnapshotError::Corrupt(_)) => {}
                other => panic!("cut={cut}: unexpected {other:?}"),
            }
        }
        // Trailing garbage after a complete section is corrupt.
        let mut bad = blob.clone();
        bad.push(0);
        assert!(matches!(
            decode_snapshot_v2_full(&bad),
            Err(SnapshotError::Corrupt(_))
        ));
    }

    #[test]
    fn empty_world_roundtrips() {
        let g = GraphBuilder::new(0).build();
        let labels = HopLabels::empty(0);
        let inverted = CategoryIndexSet::build(&labels, g.categories());
        let blob = encode_snapshot_v2(&g, &labels, &inverted);
        let (g2, labels2, inverted2) = decode_snapshot_v2(&blob).unwrap();
        assert_eq!(g2.num_vertices(), 0);
        assert_eq!(labels2.num_vertices(), 0);
        assert_eq!(inverted2.num_categories(), 0);
    }
}
