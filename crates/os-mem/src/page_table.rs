//! Four-level radix page table (x86-64 style).
//!
//! Each node holds 512 entries and is placed at a distinct simulated
//! physical address so the page-table *walker* in `colt-memsim` can model
//! the memory accesses of a walk — in particular, that the final walk step
//! fetches a 64-byte cache line containing the PTEs of eight consecutive
//! virtual pages, the window CoLT's coalescing logic inspects (paper
//! §4.1.4). Superpages are leaves at the second-lowest level (2MB).

use crate::addr::{Pfn, PhysAddr, Vpn, PTES_PER_LINE, PT_FANOUT, PT_LEVELS, SUPERPAGE_PAGES};
use crate::snapshot::{bad_tag, cold_err, Dec, Enc, SnapResult, Snapshot};
use std::fmt;

/// Simulated physical region where page-table nodes live, placed far above
/// any RAM the buddy allocator manages so addresses never collide.
const PT_NODE_REGION_BASE: u64 = 1 << 40;

/// Page-table entry attribute/permission bits. Contiguous translations
/// may be coalesced only when *all* attribute bits match (paper §5.1.1:
/// "contiguous translations must share the same page attributes").
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct PteFlags(u16);

impl PteFlags {
    /// Writable mapping.
    pub const WRITABLE: PteFlags = PteFlags(1 << 0);
    /// User-accessible mapping.
    pub const USER: PteFlags = PteFlags(1 << 1);
    /// Page has been written.
    pub const DIRTY: PteFlags = PteFlags(1 << 2);
    /// Page has been referenced.
    pub const ACCESSED: PteFlags = PteFlags(1 << 3);
    /// Global mapping (not flushed on context switch).
    pub const GLOBAL: PteFlags = PteFlags(1 << 4);
    /// Execution disabled.
    pub const NO_EXEC: PteFlags = PteFlags(1 << 5);
    /// Backed by a file rather than anonymous memory. File-backed pages
    /// are not THS superpage candidates (paper §6.1).
    pub const FILE_BACKED: PteFlags = PteFlags(1 << 6);

    /// The empty flag set.
    pub const fn empty() -> Self {
        PteFlags(0)
    }

    /// The default flags for an anonymous user data page.
    pub fn user_data() -> Self {
        PteFlags::WRITABLE | PteFlags::USER | PteFlags::NO_EXEC
    }

    /// True when all bits of `other` are set in `self`.
    pub const fn contains(self, other: PteFlags) -> bool {
        self.0 & other.0 == other.0
    }

    /// Returns `self` with the bits of `other` added.
    #[must_use]
    pub const fn with(self, other: PteFlags) -> Self {
        PteFlags(self.0 | other.0)
    }

    /// Returns `self` with the bits of `other` removed.
    #[must_use]
    pub const fn without(self, other: PteFlags) -> Self {
        PteFlags(self.0 & !other.0)
    }

    /// Raw bit representation.
    pub const fn bits(self) -> u16 {
        self.0
    }
}

impl std::ops::BitOr for PteFlags {
    type Output = PteFlags;
    fn bitor(self, rhs: PteFlags) -> PteFlags {
        PteFlags(self.0 | rhs.0)
    }
}

impl fmt::Debug for PteFlags {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let names = [
            (PteFlags::WRITABLE, "W"),
            (PteFlags::USER, "U"),
            (PteFlags::DIRTY, "D"),
            (PteFlags::ACCESSED, "A"),
            (PteFlags::GLOBAL, "G"),
            (PteFlags::NO_EXEC, "NX"),
            (PteFlags::FILE_BACKED, "F"),
        ];
        write!(f, "PteFlags(")?;
        let mut first = true;
        for (flag, name) in names {
            if self.contains(flag) {
                if !first {
                    write!(f, "|")?;
                }
                write!(f, "{name}")?;
                first = false;
            }
        }
        if first {
            write!(f, "-")?;
        }
        write!(f, ")")
    }
}

/// A leaf page-table entry: target frame plus attributes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Pte {
    /// Target physical frame (for superpage leaves, the 512-aligned base).
    pub pfn: Pfn,
    /// Attribute bits.
    pub flags: PteFlags,
}

impl Pte {
    /// Creates a PTE.
    pub fn new(pfn: Pfn, flags: PteFlags) -> Self {
        Self { pfn, flags }
    }
}

/// What kind of page a translation resolved to.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PageKind {
    /// A 4KB base page.
    Base,
    /// A 2MB superpage; `base_vpn` is its first virtual page.
    Super {
        /// First virtual page of the superpage.
        base_vpn: Vpn,
    },
}

/// The result of translating one virtual page.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Translation {
    /// Physical frame backing the queried virtual page.
    pub pfn: Pfn,
    /// Attribute bits of the mapping.
    pub flags: PteFlags,
    /// Base page or superpage.
    pub kind: PageKind,
}

/// The memory accesses a hardware walk of one virtual page would perform:
/// the physical address of the page-table entry read at each level, from
/// the root (level 3) down to the leaf.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct WalkPath {
    /// Entry addresses in root-to-leaf order; the first `levels` are
    /// read (4 for a base page, 3 for a superpage).
    addrs: [PhysAddr; PT_LEVELS],
    levels: usize,
    /// The translation found at the leaf.
    pub translation: Translation,
}

impl WalkPath {
    /// The entry addresses read, in root-to-leaf order (4 for a base
    /// page, 3 for a superpage).
    pub fn entry_addrs(&self) -> &[PhysAddr] {
        &self.addrs[..self.levels]
    }
}

/// A cache line's worth of final-level PTEs: the eight (possibly absent)
/// translations for virtual pages `base_vpn .. base_vpn + 8`, fetched by
/// one LLC access during a page walk. This is exactly the material CoLT's
/// coalescing logic inspects (paper §4.1.4).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PteLine {
    /// First virtual page covered (aligned to eight pages).
    pub base_vpn: Vpn,
    /// The eight PTE slots.
    pub ptes: [Option<Pte>; PTES_PER_LINE as usize],
}

impl PteLine {
    /// Index of `vpn` within the line.
    ///
    /// # Panics
    /// Panics if `vpn` is outside the line.
    pub fn slot_of(&self, vpn: Vpn) -> usize {
        let d = vpn.distance_from(self.base_vpn).expect("vpn below line base");
        assert!(d < PTES_PER_LINE, "vpn beyond line");
        d as usize
    }
}

#[derive(Clone, Debug)]
enum Entry {
    Empty,
    Table(Box<Node>),
    LeafBase(Pte),
    LeafSuper(Pte),
}

#[derive(Clone, Debug)]
struct Node {
    /// Simulated physical base address of this 4KB table node.
    phys: PhysAddr,
    entries: Vec<Entry>,
    /// Number of non-empty entries, for cheap node reclamation checks.
    live: u16,
}

impl Node {
    fn new(id: u64) -> Self {
        let mut entries = Vec::with_capacity(PT_FANOUT as usize);
        entries.resize_with(PT_FANOUT as usize, || Entry::Empty);
        Self {
            phys: PhysAddr::new(PT_NODE_REGION_BASE + id * 4096),
            entries,
            live: 0,
        }
    }

    fn entry_addr(&self, index: usize) -> PhysAddr {
        self.phys.offset(index as u64 * 8)
    }
}

/// The eight base-page slots around `vpn` in `node`, the level-0 node
/// covering it.
fn line_in(node: &Node, vpn: Vpn) -> PteLine {
    let base_vpn = vpn.align_down(3);
    let mut ptes = [None; PTES_PER_LINE as usize];
    let first = level_index(base_vpn, 0);
    for (slot, entry) in ptes.iter_mut().zip(&node.entries[first..]) {
        if let Entry::LeafBase(pte) = entry {
            *slot = Some(*pte);
        }
    }
    PteLine { base_vpn, ptes }
}

/// Index of `vpn` at radix `level` (level 3 = root, level 0 = last).
fn level_index(vpn: Vpn, level: usize) -> usize {
    ((vpn.raw() >> (9 * level)) & (PT_FANOUT - 1)) as usize
}

/// Statistics about the mappings held in a page table.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct PageTableStats {
    /// Number of mapped 4KB base pages.
    pub base_pages: u64,
    /// Number of mapped 2MB superpages.
    pub superpages: u64,
    /// Number of allocated table nodes.
    pub nodes: u64,
}

/// A four-level radix page table for one address space.
///
/// ```
/// use colt_os_mem::page_table::{PageTable, Pte, PteFlags};
/// use colt_os_mem::addr::{Pfn, Vpn};
/// let mut pt = PageTable::new();
/// pt.map_base(Vpn::new(1), Pte::new(Pfn::new(58), PteFlags::user_data()));
/// let t = pt.translate(Vpn::new(1)).expect("mapped");
/// assert_eq!(t.pfn, Pfn::new(58));
/// ```
#[derive(Clone, Debug)]
pub struct PageTable {
    root: Node,
    next_node_id: u64,
    base_pages: u64,
    superpages: u64,
    nodes: u64,
}

impl Default for PageTable {
    fn default() -> Self {
        Self::new()
    }
}

impl PageTable {
    /// Creates an empty page table.
    pub fn new() -> Self {
        Self {
            root: Node::new(0),
            next_node_id: 1,
            base_pages: 0,
            superpages: 0,
            nodes: 1,
        }
    }

    /// Current mapping statistics.
    pub fn stats(&self) -> PageTableStats {
        PageTableStats {
            base_pages: self.base_pages,
            superpages: self.superpages,
            nodes: self.nodes,
        }
    }

    fn alloc_node(next_node_id: &mut u64, nodes: &mut u64) -> Box<Node> {
        let id = *next_node_id;
        *next_node_id += 1;
        *nodes += 1;
        Box::new(Node::new(id))
    }

    /// Descends to the node at `target_level` covering `vpn`, creating
    /// intermediate nodes as needed.
    ///
    /// # Panics
    /// Panics if the path is blocked by an existing superpage leaf.
    fn node_at_mut(&mut self, vpn: Vpn, target_level: usize) -> &mut Node {
        let next_node_id = &mut self.next_node_id;
        let nodes = &mut self.nodes;
        let mut node = &mut self.root;
        let mut level = PT_LEVELS - 1;
        while level > target_level {
            let idx = level_index(vpn, level);
            let entry = &mut node.entries[idx];
            match entry {
                Entry::Empty => {
                    *entry = Entry::Table(Self::alloc_node(next_node_id, nodes));
                    node.live += 1;
                }
                Entry::Table(_) => {}
                Entry::LeafBase(_) | Entry::LeafSuper(_) => {
                    panic!("mapping path blocked by existing leaf at level {level}")
                }
            }
            let Entry::Table(child) = entry else { unreachable!() };
            node = child;
            level -= 1;
        }
        node
    }

    /// Maps a 4KB base page.
    ///
    /// # Panics
    /// Panics if `vpn` is already mapped (by a base page or an enclosing
    /// superpage).
    pub fn map_base(&mut self, vpn: Vpn, pte: Pte) {
        let node = self.node_at_mut(vpn, 0);
        let idx = level_index(vpn, 0);
        match node.entries[idx] {
            Entry::Empty => {
                node.entries[idx] = Entry::LeafBase(pte);
                node.live += 1;
                self.base_pages += 1;
            }
            _ => panic!("virtual page {vpn} already mapped"),
        }
    }

    /// Maps a 2MB superpage at the 512-page-aligned `base_vpn`.
    ///
    /// # Panics
    /// Panics if `base_vpn` or `pte.pfn` is misaligned, or the slot is
    /// occupied.
    pub fn map_super(&mut self, base_vpn: Vpn, pte: Pte) {
        assert!(base_vpn.is_aligned(9), "superpage vpn {base_vpn} misaligned");
        assert!(pte.pfn.is_aligned(9), "superpage pfn {} misaligned", pte.pfn);
        let node = self.node_at_mut(base_vpn, 1);
        let idx = level_index(base_vpn, 1);
        // A PTE table emptied by unmaps is reclaimed on the spot: the
        // khugepaged collapse path unmaps all 512 base pages and then
        // installs the superpage leaf in their place.
        let mut freed_table = false;
        if matches!(&node.entries[idx], Entry::Table(child) if child.live == 0) {
            node.entries[idx] = Entry::Empty;
            node.live -= 1;
            freed_table = true;
        }
        match node.entries[idx] {
            Entry::Empty => {
                node.entries[idx] = Entry::LeafSuper(pte);
                node.live += 1;
                self.superpages += 1;
            }
            _ => panic!("superpage slot at {base_vpn} already occupied"),
        }
        if freed_table {
            self.nodes -= 1;
        }
    }

    fn leaf_entry(&self, vpn: Vpn) -> Option<(&Entry, usize)> {
        let mut node = &self.root;
        let mut level = PT_LEVELS - 1;
        loop {
            let idx = level_index(vpn, level);
            match &node.entries[idx] {
                Entry::Empty => return None,
                Entry::Table(child) => {
                    if level == 0 {
                        return None;
                    }
                    node = child;
                    level -= 1;
                }
                e @ Entry::LeafBase(_) => return Some((e, level)),
                e @ Entry::LeafSuper(_) => {
                    if level == 1 {
                        return Some((e, level));
                    }
                    return None;
                }
            }
        }
    }

    /// Translates a virtual page to its backing frame, resolving both
    /// base-page and superpage mappings.
    pub fn translate(&self, vpn: Vpn) -> Option<Translation> {
        match self.leaf_entry(vpn)? {
            (Entry::LeafBase(pte), _) => Some(Translation {
                pfn: pte.pfn,
                flags: pte.flags,
                kind: PageKind::Base,
            }),
            (Entry::LeafSuper(pte), _) => {
                let base_vpn = vpn.align_down(9);
                let within = vpn.distance_from(base_vpn).expect("aligned down");
                Some(Translation {
                    pfn: pte.pfn.offset(within),
                    flags: pte.flags,
                    kind: PageKind::Super { base_vpn },
                })
            }
            _ => unreachable!("leaf_entry returns only leaves"),
        }
    }

    /// Simulates a hardware page walk of `vpn`, returning the physical
    /// address of the entry read at each level and the final translation.
    /// Returns `None` if the page is unmapped.
    pub fn walk(&self, vpn: Vpn) -> Option<WalkPath> {
        self.walk_to_leaf(vpn).map(|(path, _)| path)
    }

    /// [`walk`](Self::walk) plus, for a base-page leaf, its
    /// [`pte_line`](Self::pte_line), read from the level-0 node the walk
    /// reached instead of descending from the root again. The line is
    /// `None` for a superpage leaf.
    pub fn walk_with_line(&self, vpn: Vpn) -> Option<(WalkPath, Option<PteLine>)> {
        let (path, leaf_node) = self.walk_to_leaf(vpn)?;
        let line = match path.translation.kind {
            PageKind::Base => Some(match leaf_node {
                Some(node) => line_in(node, vpn),
                None => self.pte_line(vpn),
            }),
            PageKind::Super { .. } => None,
        };
        Some((path, line))
    }

    /// The walk of `vpn`, with the level-0 node holding its leaf (`None`
    /// for a leaf higher up).
    fn walk_to_leaf(&self, vpn: Vpn) -> Option<(WalkPath, Option<&Node>)> {
        let mut addrs = [PhysAddr::default(); PT_LEVELS];
        let mut node = &self.root;
        let mut level = PT_LEVELS - 1;
        loop {
            let idx = level_index(vpn, level);
            let levels = PT_LEVELS - level;
            addrs[levels - 1] = node.entry_addr(idx);
            match &node.entries[idx] {
                Entry::Empty => return None,
                Entry::Table(child) => {
                    if level == 0 {
                        return None;
                    }
                    node = child;
                    level -= 1;
                }
                Entry::LeafBase(pte) => {
                    let path = WalkPath {
                        addrs,
                        levels,
                        translation: Translation {
                            pfn: pte.pfn,
                            flags: pte.flags,
                            kind: PageKind::Base,
                        },
                    };
                    return Some((path, (level == 0).then_some(node)));
                }
                Entry::LeafSuper(pte) => {
                    if level != 1 {
                        return None;
                    }
                    let base_vpn = vpn.align_down(9);
                    let within = vpn.distance_from(base_vpn).expect("aligned down");
                    let path = WalkPath {
                        addrs,
                        levels,
                        translation: Translation {
                            pfn: pte.pfn.offset(within),
                            flags: pte.flags,
                            kind: PageKind::Super { base_vpn },
                        },
                    };
                    return Some((path, None));
                }
            }
        }
    }

    /// The 64-byte cache line of final-level PTEs covering `vpn`: the
    /// eight slots for virtual pages `align8(vpn) .. align8(vpn)+8`.
    /// Slots that are unmapped, or that fall under a superpage (whose
    /// translation lives one level up), read as `None`.
    pub fn pte_line(&self, vpn: Vpn) -> PteLine {
        // All eight pages share the same level-0 node (its 512 entries
        // cover 512 consecutive pages and 8 divides 512): descend to it
        // once and read the eight slots.
        let mut node = &self.root;
        for level in (1..PT_LEVELS).rev() {
            match &node.entries[level_index(vpn, level)] {
                Entry::Table(child) => node = child,
                _ => {
                    return PteLine {
                        base_vpn: vpn.align_down(3),
                        ptes: [None; PTES_PER_LINE as usize],
                    }
                }
            }
        }
        line_in(node, vpn)
    }

    /// Removes the base-page mapping of `vpn`, returning its PTE.
    pub fn unmap_base(&mut self, vpn: Vpn) -> Option<Pte> {
        let pte = self.update_base(vpn, |_| None)?;
        Some(pte)
    }

    /// Replaces the frame of an existing base mapping (page migration),
    /// returning the old PTE. Flags are preserved.
    pub fn remap_base(&mut self, vpn: Vpn, new_pfn: Pfn) -> Option<Pte> {
        self.update_base(vpn, |old| Some(Pte::new(new_pfn, old.flags)))
    }

    /// Sets additional flag bits on an existing base mapping (e.g. DIRTY),
    /// returning the old PTE.
    pub fn add_flags_base(&mut self, vpn: Vpn, flags: PteFlags) -> Option<Pte> {
        self.update_base(vpn, |old| Some(Pte::new(old.pfn, old.flags.with(flags))))
    }

    /// Applies `f` to the base-page leaf at `vpn`; `None` from `f` unmaps.
    /// Returns the previous PTE, or `None` when `vpn` has no base mapping.
    fn update_base(&mut self, vpn: Vpn, f: impl FnOnce(Pte) -> Option<Pte>) -> Option<Pte> {
        let mut node = &mut self.root;
        for level in (1..PT_LEVELS).rev() {
            let idx = level_index(vpn, level);
            match &mut node.entries[idx] {
                Entry::Table(child) => node = child,
                _ => return None,
            }
        }
        let idx = level_index(vpn, 0);
        let old = match &node.entries[idx] {
            Entry::LeafBase(pte) => *pte,
            _ => return None,
        };
        let mut unmapped = false;
        match f(old) {
            Some(new) => node.entries[idx] = Entry::LeafBase(new),
            None => {
                node.entries[idx] = Entry::Empty;
                node.live -= 1;
                unmapped = true;
            }
        }
        if unmapped {
            self.base_pages -= 1;
        }
        Some(old)
    }

    /// Removes a superpage mapping, returning its base PTE.
    pub fn unmap_super(&mut self, base_vpn: Vpn) -> Option<Pte> {
        assert!(base_vpn.is_aligned(9), "superpage vpn {base_vpn} misaligned");
        let mut node = &mut self.root;
        let mut level = PT_LEVELS - 1;
        while level > 1 {
            let idx = level_index(base_vpn, level);
            match &mut node.entries[idx] {
                Entry::Table(child) => node = child,
                _ => return None,
            }
            level -= 1;
        }
        let idx = level_index(base_vpn, 1);
        if let Entry::LeafSuper(pte) = node.entries[idx] {
            node.entries[idx] = Entry::Empty;
            node.live -= 1;
            self.superpages -= 1;
            Some(pte)
        } else {
            None
        }
    }

    /// Splits a 2MB superpage into 512 base PTEs mapping the *same*
    /// consecutive frames. The residual contiguity this leaves behind is
    /// one of the paper's key observations (§3.2.3: split THS pages
    /// "retain contiguity among tens of baseline 4KB pages").
    ///
    /// Returns the superpage's base PTE, or `None` if no superpage maps
    /// `base_vpn`.
    pub fn split_superpage(&mut self, base_vpn: Vpn) -> Option<Pte> {
        let pte = self.unmap_super(base_vpn)?;
        for i in 0..SUPERPAGE_PAGES {
            self.map_base(base_vpn.offset(i), Pte::new(pte.pfn.offset(i), pte.flags));
        }
        Some(pte)
    }

    /// Iterates all base-page mappings in ascending VPN order (the
    /// contiguity scanner's input; superpage-mapped pages are excluded,
    /// matching the paper's CDFs over "non-superpage pages").
    pub fn iter_base(&self) -> impl Iterator<Item = (Vpn, Pte)> + '_ {
        let mut out = Vec::with_capacity(self.base_pages as usize);
        collect_base(&self.root, PT_LEVELS - 1, 0, &mut out);
        out.into_iter()
    }

    /// Iterates all superpage mappings as `(base_vpn, pte)` in ascending
    /// VPN order.
    pub fn iter_super(&self) -> impl Iterator<Item = (Vpn, Pte)> + '_ {
        let mut out = Vec::with_capacity(self.superpages as usize);
        collect_super(&self.root, PT_LEVELS - 1, 0, &mut out);
        out.into_iter()
    }
}

impl Snapshot for PteFlags {
    fn encode(&self, enc: &mut Enc) {
        enc.u16(self.0);
    }

    #[inline]
    fn decode(dec: &mut Dec<'_>) -> SnapResult<Self> {
        Ok(PteFlags(dec.u16()?))
    }
}

impl Snapshot for Pte {
    fn encode(&self, enc: &mut Enc) {
        self.pfn.encode(enc);
        self.flags.encode(enc);
    }

    #[inline]
    fn decode(dec: &mut Dec<'_>) -> SnapResult<Self> {
        Ok(Self { pfn: Pfn::decode(dec)?, flags: PteFlags::decode(dec)? })
    }
}

// The node graph is serialized *structurally* — each node carries its
// simulated physical address — rather than rebuilt through map_base():
// node-id assignment order determines walk entry addresses, and those
// feed the cache model, so a reconstruction that allocated ids in a
// different order would change simulation results.
impl Snapshot for Entry {
    fn encode(&self, enc: &mut Enc) {
        match self {
            Entry::Empty => enc.u8(0),
            Entry::Table(node) => {
                enc.u8(1);
                node.encode(enc);
            }
            Entry::LeafBase(pte) => {
                enc.u8(2);
                pte.encode(enc);
            }
            Entry::LeafSuper(pte) => {
                enc.u8(3);
                pte.encode(enc);
            }
        }
    }

    #[inline]
    fn decode(dec: &mut Dec<'_>) -> SnapResult<Self> {
        match dec.u8()? {
            0 => Ok(Entry::Empty),
            1 => Ok(Entry::Table(Box::new(Node::decode(dec)?))),
            2 => Ok(Entry::LeafBase(Pte::decode(dec)?)),
            3 => Ok(Entry::LeafSuper(Pte::decode(dec)?)),
            b => Err(bad_tag("page-table Entry", b)),
        }
    }
}

impl Snapshot for Node {
    fn encode(&self, enc: &mut Enc) {
        self.phys.encode(enc);
        enc.u16(self.live);
        // Sparse encoding: most of a node's 512 slots are Empty, so store
        // only the occupied (index, entry) pairs.
        let occupied: Vec<(usize, &Entry)> = self
            .entries
            .iter()
            .enumerate()
            .filter(|(_, e)| !matches!(e, Entry::Empty))
            .collect();
        enc.usize(occupied.len());
        for (idx, entry) in occupied {
            enc.u16(idx as u16);
            entry.encode(enc);
        }
    }

    fn decode(dec: &mut Dec<'_>) -> SnapResult<Self> {
        let phys = PhysAddr::decode(dec)?;
        let live = dec.u16()?;
        let n = dec.len("page-table node entries")?;
        if n > PT_FANOUT as usize {
            return Err(cold_err(format_args!("node with {n} occupied entries")));
        }
        let mut entries = Vec::with_capacity(PT_FANOUT as usize);
        entries.resize_with(PT_FANOUT as usize, || Entry::Empty);
        // Indices arrive strictly ascending, so no slot is written twice.
        let mut next_idx = 0;
        for _ in 0..n {
            let idx = dec.u16()? as usize;
            if idx < next_idx || idx >= PT_FANOUT as usize {
                return Err(cold_err(format_args!("node entry index {idx} out of order or range")));
            }
            next_idx = idx + 1;
            entries[idx] = Entry::decode(dec)?;
        }
        Ok(Self { phys, entries, live })
    }
}

impl Snapshot for PageTable {
    fn encode(&self, enc: &mut Enc) {
        self.root.encode(enc);
        enc.u64(self.next_node_id);
        enc.u64(self.base_pages);
        enc.u64(self.superpages);
        enc.u64(self.nodes);
    }

    fn decode(dec: &mut Dec<'_>) -> SnapResult<Self> {
        Ok(Self {
            root: Node::decode(dec)?,
            next_node_id: dec.u64()?,
            base_pages: dec.u64()?,
            superpages: dec.u64()?,
            nodes: dec.u64()?,
        })
    }
}

fn collect_base(node: &Node, level: usize, prefix: u64, out: &mut Vec<(Vpn, Pte)>) {
    for (idx, entry) in node.entries.iter().enumerate() {
        let vpn_bits = prefix | ((idx as u64) << (9 * level));
        match entry {
            Entry::Table(child) if level > 0 => collect_base(child, level - 1, vpn_bits, out),
            Entry::LeafBase(pte) if level == 0 => out.push((Vpn::new(vpn_bits), *pte)),
            _ => {}
        }
    }
}

fn collect_super(node: &Node, level: usize, prefix: u64, out: &mut Vec<(Vpn, Pte)>) {
    for (idx, entry) in node.entries.iter().enumerate() {
        let vpn_bits = prefix | ((idx as u64) << (9 * level));
        match entry {
            Entry::Table(child) if level > 1 => collect_super(child, level - 1, vpn_bits, out),
            Entry::LeafSuper(pte) if level == 1 => out.push((Vpn::new(vpn_bits), *pte)),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flags() -> PteFlags {
        PteFlags::user_data()
    }

    #[test]
    fn map_translate_unmap_base_page() {
        let mut pt = PageTable::new();
        pt.map_base(Vpn::new(0x12345), Pte::new(Pfn::new(77), flags()));
        let t = pt.translate(Vpn::new(0x12345)).unwrap();
        assert_eq!(t.pfn, Pfn::new(77));
        assert_eq!(t.kind, PageKind::Base);
        assert_eq!(pt.stats().base_pages, 1);
        let old = pt.unmap_base(Vpn::new(0x12345)).unwrap();
        assert_eq!(old.pfn, Pfn::new(77));
        assert!(pt.translate(Vpn::new(0x12345)).is_none());
        assert_eq!(pt.stats().base_pages, 0);
    }

    #[test]
    fn translate_unmapped_is_none() {
        let pt = PageTable::new();
        assert!(pt.translate(Vpn::new(42)).is_none());
        assert!(pt.walk(Vpn::new(42)).is_none());
    }

    #[test]
    #[should_panic(expected = "already mapped")]
    fn double_map_panics() {
        let mut pt = PageTable::new();
        pt.map_base(Vpn::new(1), Pte::new(Pfn::new(1), flags()));
        pt.map_base(Vpn::new(1), Pte::new(Pfn::new(2), flags()));
    }

    #[test]
    fn superpage_translation_offsets_within_block() {
        let mut pt = PageTable::new();
        pt.map_super(Vpn::new(512), Pte::new(Pfn::new(1024), flags()));
        let t = pt.translate(Vpn::new(512 + 37)).unwrap();
        assert_eq!(t.pfn, Pfn::new(1024 + 37));
        assert_eq!(t.kind, PageKind::Super { base_vpn: Vpn::new(512) });
        assert_eq!(pt.stats().superpages, 1);
    }

    #[test]
    #[should_panic(expected = "misaligned")]
    fn misaligned_superpage_panics() {
        let mut pt = PageTable::new();
        pt.map_super(Vpn::new(5), Pte::new(Pfn::new(1024), flags()));
    }

    #[test]
    fn walk_base_page_touches_four_levels() {
        let mut pt = PageTable::new();
        pt.map_base(Vpn::new(0x12345), Pte::new(Pfn::new(9), flags()));
        let w = pt.walk(Vpn::new(0x12345)).unwrap();
        assert_eq!(w.entry_addrs().len(), 4);
        assert_eq!(w.translation.pfn, Pfn::new(9));
        // All entry addresses are distinct and in the PT node region.
        for (i, a) in w.entry_addrs().iter().enumerate() {
            assert!(a.raw() >= PT_NODE_REGION_BASE);
            for b in &w.entry_addrs()[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn walk_superpage_touches_three_levels() {
        let mut pt = PageTable::new();
        pt.map_super(Vpn::new(1024), Pte::new(Pfn::new(2048), flags()));
        let w = pt.walk(Vpn::new(1024 + 3)).unwrap();
        assert_eq!(w.entry_addrs().len(), 3);
        assert_eq!(w.translation.pfn, Pfn::new(2051));
    }

    #[test]
    fn consecutive_vpns_share_pte_cache_lines() {
        let mut pt = PageTable::new();
        for i in 0..16 {
            pt.map_base(Vpn::new(64 + i), Pte::new(Pfn::new(100 + i), flags()));
        }
        let w0 = pt.walk(Vpn::new(64)).unwrap();
        let w7 = pt.walk(Vpn::new(71)).unwrap();
        let w8 = pt.walk(Vpn::new(72)).unwrap();
        let leaf0 = w0.entry_addrs().last().unwrap();
        let leaf7 = w7.entry_addrs().last().unwrap();
        let leaf8 = w8.entry_addrs().last().unwrap();
        assert_eq!(leaf0.cache_line(), leaf7.cache_line(), "vpns 64..72 share a line");
        assert_ne!(leaf0.cache_line(), leaf8.cache_line(), "vpn 72 starts the next line");
    }

    #[test]
    fn pte_line_reads_eight_slots() {
        let mut pt = PageTable::new();
        for i in [0u64, 1, 2, 5] {
            pt.map_base(Vpn::new(8 + i), Pte::new(Pfn::new(50 + i), flags()));
        }
        let line = pt.pte_line(Vpn::new(10));
        assert_eq!(line.base_vpn, Vpn::new(8));
        assert_eq!(line.slot_of(Vpn::new(10)), 2);
        assert_eq!(line.ptes[0].unwrap().pfn, Pfn::new(50));
        assert_eq!(line.ptes[1].unwrap().pfn, Pfn::new(51));
        assert_eq!(line.ptes[2].unwrap().pfn, Pfn::new(52));
        assert!(line.ptes[3].is_none());
        assert!(line.ptes[4].is_none());
        assert_eq!(line.ptes[5].unwrap().pfn, Pfn::new(55));
        assert!(line.ptes[6].is_none());
    }

    #[test]
    fn walk_with_line_matches_walk_and_pte_line() {
        let mut pt = PageTable::new();
        for i in [0u64, 1, 2, 5, 9, 600] {
            pt.map_base(Vpn::new(8 + i), Pte::new(Pfn::new(50 + i), flags()));
        }
        pt.map_super(Vpn::new(1024), Pte::new(Pfn::new(2048), flags()));
        for vpn in [8u64, 10, 11, 13, 17, 608, 1024, 1030, 4000].map(Vpn::new) {
            let walked = pt.walk_with_line(vpn);
            let path = pt.walk(vpn);
            assert_eq!(walked.is_some(), path.is_some(), "{vpn:?}");
            let (Some((with_line, line)), Some(path)) = (walked, path) else { continue };
            assert_eq!(with_line.entry_addrs(), path.entry_addrs(), "{vpn:?}");
            assert_eq!(with_line.translation, path.translation, "{vpn:?}");
            let expected = (path.translation.kind == PageKind::Base).then(|| pt.pte_line(vpn));
            assert_eq!(line, expected, "{vpn:?}");
        }
    }

    #[test]
    fn pte_line_excludes_superpage_slots() {
        let mut pt = PageTable::new();
        pt.map_super(Vpn::new(512), Pte::new(Pfn::new(512), flags()));
        let line = pt.pte_line(Vpn::new(515));
        assert!(line.ptes.iter().all(Option::is_none));
    }

    #[test]
    fn split_superpage_preserves_contiguity() {
        let mut pt = PageTable::new();
        pt.map_super(Vpn::new(512), Pte::new(Pfn::new(4096), flags()));
        let old = pt.split_superpage(Vpn::new(512)).unwrap();
        assert_eq!(old.pfn, Pfn::new(4096));
        assert_eq!(pt.stats().superpages, 0);
        assert_eq!(pt.stats().base_pages, 512);
        for i in 0..512 {
            let t = pt.translate(Vpn::new(512 + i)).unwrap();
            assert_eq!(t.pfn, Pfn::new(4096 + i));
            assert_eq!(t.kind, PageKind::Base);
        }
    }

    #[test]
    fn remap_base_migrates_frame_preserving_flags() {
        let mut pt = PageTable::new();
        let f = flags().with(PteFlags::DIRTY);
        pt.map_base(Vpn::new(7), Pte::new(Pfn::new(10), f));
        let old = pt.remap_base(Vpn::new(7), Pfn::new(99)).unwrap();
        assert_eq!(old.pfn, Pfn::new(10));
        let t = pt.translate(Vpn::new(7)).unwrap();
        assert_eq!(t.pfn, Pfn::new(99));
        assert_eq!(t.flags, f);
    }

    #[test]
    fn add_flags_sets_bits() {
        let mut pt = PageTable::new();
        pt.map_base(Vpn::new(7), Pte::new(Pfn::new(10), flags()));
        pt.add_flags_base(Vpn::new(7), PteFlags::DIRTY);
        assert!(pt.translate(Vpn::new(7)).unwrap().flags.contains(PteFlags::DIRTY));
    }

    #[test]
    fn iter_base_is_vpn_sorted_and_complete() {
        let mut pt = PageTable::new();
        let vpns = [0x900_000u64, 0x3, 0x1_000_000, 0x4, 0x200];
        for (i, &v) in vpns.iter().enumerate() {
            pt.map_base(Vpn::new(v), Pte::new(Pfn::new(i as u64), flags()));
        }
        let got: Vec<u64> = pt.iter_base().map(|(v, _)| v.raw()).collect();
        let mut want = vpns.to_vec();
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn iter_super_lists_superpages() {
        let mut pt = PageTable::new();
        pt.map_super(Vpn::new(512), Pte::new(Pfn::new(0), flags()));
        pt.map_super(Vpn::new(512 * 5), Pte::new(Pfn::new(512), flags()));
        let got: Vec<u64> = pt.iter_super().map(|(v, _)| v.raw()).collect();
        assert_eq!(got, vec![512, 512 * 5]);
    }

    #[test]
    fn snapshot_round_trip_preserves_walk_addresses() {
        let mut pt = PageTable::new();
        for i in 0..64u64 {
            pt.map_base(Vpn::new(0x4000 + i), Pte::new(Pfn::new(900 + i), flags()));
        }
        pt.map_super(Vpn::new(512), Pte::new(Pfn::new(1024), flags()));
        pt.unmap_base(Vpn::new(0x4000 + 7));

        let mut enc = Enc::new();
        pt.encode(&mut enc);
        let bytes = enc.finish();
        let mut dec = Dec::new(&bytes);
        let back = PageTable::decode(&mut dec).unwrap();
        dec.finish().unwrap();

        assert_eq!(back.stats(), pt.stats());
        for vpn in [Vpn::new(0x4000), Vpn::new(0x4000 + 63), Vpn::new(512 + 13)] {
            let a = pt.walk(vpn).unwrap();
            let b = back.walk(vpn).unwrap();
            assert_eq!(a.entry_addrs(), b.entry_addrs(), "walk addresses must survive");
            assert_eq!(a.translation, b.translation);
        }
        assert!(back.walk(Vpn::new(0x4000 + 7)).is_none());
        // Future node allocation continues from the same id.
        assert_eq!(back.next_node_id, pt.next_node_id);
    }

    #[test]
    fn node_entries_must_arrive_in_index_order() {
        let node = |indices: [u16; 2]| {
            let mut enc = Enc::new();
            PhysAddr::new(PT_NODE_REGION_BASE).encode(&mut enc);
            enc.u16(2);
            enc.usize(2);
            for idx in indices {
                enc.u16(idx);
                Entry::LeafBase(Pte::new(Pfn::new(1), flags())).encode(&mut enc);
            }
            Node::decode(&mut Dec::new(&enc.finish()))
        };
        assert!(node([4, 9]).is_ok());
        assert!(node([9, 4]).is_err());
        assert!(node([4, 4]).is_err(), "a repeated index would drop an entry");
        assert!(node([4, PT_FANOUT as u16]).is_err());
    }

    #[test]
    fn flags_ops_and_debug() {
        let f = PteFlags::user_data();
        assert!(f.contains(PteFlags::WRITABLE));
        assert!(!f.contains(PteFlags::DIRTY));
        let g = f.with(PteFlags::DIRTY);
        assert!(g.contains(PteFlags::DIRTY));
        assert_eq!(g.without(PteFlags::DIRTY), f);
        assert!(format!("{f:?}").contains('W'));
        assert_eq!(format!("{:?}", PteFlags::empty()), "PteFlags(-)");
    }
}
