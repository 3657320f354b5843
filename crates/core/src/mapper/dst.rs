//! Device Status Table (DST).
//!
//! One row per GPU in the gPool. Static fields (weight, hosting node) are
//! filled once by the gPool Creator; the dynamic load (which workload
//! classes are currently bound) is updated by the Target GPU Selector as
//! requests arrive and complete.

use super::slices::{slice_demand, SliceState};
use super::WorkloadClass;
use remoting::gpool::{GMap, Gid, NodeId};

/// One DST row.
#[derive(Debug, Clone)]
pub struct DeviceStatus {
    /// Global device id.
    pub gid: Gid,
    /// Hosting node.
    pub node: NodeId,
    /// Static device weight (from device properties at gPool creation).
    pub weight: f64,
    bound: Vec<WorkloadClass>,
    retired: bool,
    /// MIG slice occupancy, if the device is partitionable.
    slices: Option<SliceState>,
    /// Live slice grants: (class, start unit, size). Parallel to `bound`
    /// for the instances that got a slice; overflow instances time-share
    /// and appear in `bound` only.
    slice_allocs: Vec<(WorkloadClass, u8, u8)>,
}

impl DeviceStatus {
    /// Number of application instances currently bound (the paper's
    /// "device load" field).
    pub fn load(&self) -> usize {
        self.bound.len()
    }

    /// Load normalized by device weight (GWtMin's metric).
    pub fn weighted_load(&self) -> f64 {
        self.bound.len() as f64 / self.weight
    }

    /// Workload classes currently bound.
    pub fn bound(&self) -> &[WorkloadClass] {
        &self.bound
    }

    /// True once the device has failed (ECC error, node loss) and must no
    /// longer receive placements.
    pub fn is_retired(&self) -> bool {
        self.retired
    }

    /// Slice occupancy, when the device is MIG-partitioned.
    pub fn slices(&self) -> Option<&SliceState> {
        self.slices.as_ref()
    }
}

/// The full table, indexed by GID.
#[derive(Debug, Clone)]
pub struct DeviceStatusTable {
    rows: Vec<DeviceStatus>,
    /// Rows retired so far, so [`DeviceStatusTable::live_len`] answers
    /// every selection without a walk over the pool.
    retired: usize,
    /// Binds that found no free slice and fell back to time-sharing
    /// (meaningful only once [`DeviceStatusTable::enable_slices`] ran).
    slice_overflows: u64,
}

impl DeviceStatusTable {
    /// Build from the gMap (static fields) with zero load.
    pub fn from_gmap(gmap: &GMap) -> Self {
        DeviceStatusTable {
            rows: gmap
                .entries()
                .iter()
                .map(|e| DeviceStatus {
                    gid: e.gid,
                    node: e.node,
                    weight: e.weight,
                    bound: Vec::new(),
                    retired: false,
                    slices: None,
                    slice_allocs: Vec::new(),
                })
                .collect(),
            retired: 0,
            slice_overflows: 0,
        }
    }

    /// Partition every device into `units` MIG slice units. Subsequent
    /// binds claim a [`slice_demand`]-sized block when one fits; binds
    /// that fit nowhere time-share the whole device and count as
    /// [`DeviceStatusTable::slice_overflows`].
    pub fn enable_slices(&mut self, units: u8) {
        for row in &mut self.rows {
            row.slices = Some(SliceState::new(units));
            row.slice_allocs.clear();
        }
        self.slice_overflows = 0;
    }

    /// Binds that fell back to whole-device time-sharing since slices
    /// were enabled.
    pub fn slice_overflows(&self) -> u64 {
        self.slice_overflows
    }

    /// Number of devices.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Row index of `gid`. Fast path: a table over a dense gMap keeps GID
    /// *i* at row *i*; per-node shards hold global (non-zero-based) GIDs
    /// and fall back to a scan over the node's few devices.
    fn idx_of(&self, gid: Gid) -> Option<usize> {
        match self.rows.get(gid.index()) {
            Some(r) if r.gid == gid => Some(gid.index()),
            _ => self.rows.iter().position(|r| r.gid == gid),
        }
    }

    /// Row lookup.
    pub fn row(&self, gid: Gid) -> Option<&DeviceStatus> {
        self.idx_of(gid).map(|i| &self.rows[i])
    }

    /// All rows in GID order.
    pub fn rows(&self) -> &[DeviceStatus] {
        &self.rows
    }

    /// Bind one instance of `class` to `gid`. On a partitioned device the
    /// instance also claims a slice block when one fits (overflow
    /// instances time-share and bump the overflow counter).
    pub fn bind(&mut self, gid: Gid, class: WorkloadClass) {
        let i = self.idx_of(gid).expect("bind to unknown gid");
        let row = &mut self.rows[i];
        row.bound.push(class);
        if let Some(slices) = row.slices.as_mut() {
            let k = slice_demand(class);
            match slices.alloc(k) {
                Some(pos) => row.slice_allocs.push((class, pos, k)),
                None => self.slice_overflows += 1,
            }
        }
    }

    /// Unbind one instance of `class` from `gid` (no-op if absent),
    /// releasing its slice grant if it held one.
    pub fn unbind(&mut self, gid: Gid, class: WorkloadClass) {
        let Some(i) = self.idx_of(gid) else {
            return;
        };
        let row = &mut self.rows[i];
        let Some(pos) = row.bound.iter().position(|c| *c == class) else {
            return;
        };
        row.bound.swap_remove(pos);
        if let Some(slices) = row.slices.as_mut() {
            if let Some(ai) = row.slice_allocs.iter().position(|(c, _, _)| *c == class) {
                let (_, start, k) = row.slice_allocs.swap_remove(ai);
                slices.free(start, k);
            }
        }
    }

    /// Total bound instances across the pool.
    pub fn total_load(&self) -> usize {
        self.rows.iter().map(|r| r.load()).sum()
    }

    /// Retire a failed device: its row stays (GIDs are stable across
    /// failures) but selection policies skip it from now on. Idempotent.
    pub fn retire(&mut self, gid: Gid) {
        if let Some(i) = self.idx_of(gid) {
            let row = &mut self.rows[i];
            if !row.retired {
                row.retired = true;
                self.retired += 1;
            }
        }
    }

    /// Number of devices still accepting placements.
    pub fn live_len(&self) -> usize {
        self.rows.len() - self.retired
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use remoting::gpool::NodeSpec;

    fn dst() -> DeviceStatusTable {
        DeviceStatusTable::from_gmap(&GMap::build(&[NodeSpec::node_a(0), NodeSpec::node_b(1)]))
    }

    #[test]
    fn static_fields_from_gmap() {
        let t = dst();
        assert_eq!(t.len(), 4);
        assert!(!t.is_empty());
        assert_eq!(t.row(Gid(2)).unwrap().node, NodeId(1));
        // Tesla C2050 (gid1) is the reference: weight 1.
        assert!((t.row(Gid(1)).unwrap().weight - 1.0).abs() < 1e-12);
        assert!(t.row(Gid(0)).unwrap().weight < 1.0, "Quadro weighs less");
    }

    #[test]
    fn bind_unbind_counts() {
        let mut t = dst();
        let w = WorkloadClass(7);
        t.bind(Gid(0), w);
        t.bind(Gid(0), w);
        t.bind(Gid(0), WorkloadClass(8));
        assert_eq!(t.row(Gid(0)).unwrap().load(), 3);
        assert_eq!(t.total_load(), 3);
        t.unbind(Gid(0), w);
        assert_eq!(t.row(Gid(0)).unwrap().load(), 2);
        // Unbinding a class that isn't there is a no-op.
        t.unbind(Gid(0), WorkloadClass(99));
        assert_eq!(t.row(Gid(0)).unwrap().load(), 2);
    }

    #[test]
    fn weighted_load_divides_by_weight() {
        let mut t = dst();
        t.bind(Gid(0), WorkloadClass(0)); // Quadro 2000, weight < 1
        t.bind(Gid(1), WorkloadClass(0)); // Tesla C2050, weight = 1
        let q = t.row(Gid(0)).unwrap().weighted_load();
        let tsl = t.row(Gid(1)).unwrap().weighted_load();
        assert!(q > tsl, "same load weighs heavier on the weaker GPU");
    }

    #[test]
    fn retire_is_sticky_and_keeps_rows() {
        let mut t = dst();
        assert_eq!(t.live_len(), 4);
        t.retire(Gid(1));
        t.retire(Gid(1));
        assert_eq!(t.len(), 4, "row survives for GID stability");
        assert_eq!(t.live_len(), 3);
        assert!(t.row(Gid(1)).unwrap().is_retired());
        assert!(!t.row(Gid(0)).unwrap().is_retired());
        // Retiring an unknown GID is a no-op.
        t.retire(Gid(99));
        assert_eq!(t.live_len(), 3);
    }

    #[test]
    fn slices_track_binds_and_overflow() {
        let mut t = dst();
        t.enable_slices(4);
        let big = WorkloadClass(2); // 4g profile
        t.bind(Gid(0), big);
        let s = t.row(Gid(0)).unwrap().slices().unwrap();
        assert_eq!(s.free_units(), 0);
        assert_eq!(t.slice_overflows(), 0);
        // Second 4g on the same device fits nowhere: time-share overflow.
        t.bind(Gid(0), big);
        assert_eq!(t.row(Gid(0)).unwrap().load(), 2, "overflow still binds");
        assert_eq!(t.slice_overflows(), 1);
        // Unbind releases the slice grant (the granted instance first).
        t.unbind(Gid(0), big);
        assert_eq!(t.row(Gid(0)).unwrap().slices().unwrap().free_units(), 4);
        t.unbind(Gid(0), big);
        assert_eq!(t.row(Gid(0)).unwrap().load(), 0);
    }

    #[test]
    fn unpartitioned_rows_have_no_slice_state() {
        let t = dst();
        assert!(t.row(Gid(0)).unwrap().slices().is_none());
        assert_eq!(t.slice_overflows(), 0);
    }

    #[test]
    fn bound_classes_visible() {
        let mut t = dst();
        t.bind(Gid(3), WorkloadClass(1));
        t.bind(Gid(3), WorkloadClass(2));
        let b = t.row(Gid(3)).unwrap().bound();
        assert_eq!(b.len(), 2);
        assert!(b.contains(&WorkloadClass(1)));
    }
}
