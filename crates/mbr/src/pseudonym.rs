//! Pseudonym management: the SCMS issues vehicles rotating short-term
//! pseudonyms; the linkage function lets the MA map a convicted pseudonym
//! back to the long-term credential so revocation covers *all* of the
//! vehicle's pseudonyms (§I, [5]).

use std::collections::HashMap;
use vehigan_sim::{IdHash, VehicleId};

/// A vehicle's long-term enrollment identity (never transmitted).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LongTermId(pub u32);

/// Issues short-term pseudonyms and retains the linkage map.
///
/// Pseudonym values are unique across all vehicles (a fresh pseudonym
/// never collides with an existing one).
///
/// # Examples
///
/// ```
/// use vehigan_mbr::{LongTermId, PseudonymManager};
///
/// let mut scms = PseudonymManager::new();
/// let p1 = scms.issue(LongTermId(7));
/// let p2 = scms.issue(LongTermId(7)); // rotation
/// assert_ne!(p1, p2);
/// assert_eq!(scms.resolve(p1), Some(LongTermId(7)));
/// assert_eq!(scms.pseudonyms_of(LongTermId(7)), vec![p1, p2]);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PseudonymManager {
    next: u32,
    linkage: HashMap<VehicleId, LongTermId, IdHash>,
    issued: HashMap<LongTermId, Vec<VehicleId>, IdHash>,
}

impl PseudonymManager {
    /// Creates an empty manager.
    pub fn new() -> Self {
        PseudonymManager::default()
    }

    /// Issues a fresh pseudonym for the given long-term identity.
    ///
    /// # Panics
    ///
    /// Panics once the id space is used up (`VehicleId(u32::MAX)` is never
    /// issued), leaving the manager untouched: wrapping around would
    /// re-issue `VehicleId(0)` and re-link it to another vehicle, so that
    /// convicting its first holder revoked the second.
    pub fn issue(&mut self, vehicle: LongTermId) -> VehicleId {
        let pseudonym = VehicleId(self.next);
        self.next = self
            .next
            .checked_add(1)
            .expect("pseudonym space exhausted: every u32 id below u32::MAX is issued");
        self.linkage.insert(pseudonym, vehicle);
        self.issued.entry(vehicle).or_default().push(pseudonym);
        pseudonym
    }

    /// Resolves a pseudonym to its long-term identity (the MA-side
    /// linkage function).
    pub fn resolve(&self, pseudonym: VehicleId) -> Option<LongTermId> {
        self.linkage.get(&pseudonym).copied()
    }

    /// All pseudonyms ever issued to a vehicle, in issue order.
    pub fn pseudonyms_of(&self, vehicle: LongTermId) -> Vec<VehicleId> {
        self.issued.get(&vehicle).cloned().unwrap_or_default()
    }

    /// Number of pseudonyms issued so far.
    pub fn issued_count(&self) -> usize {
        self.linkage.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pseudonyms_are_unique_across_vehicles() {
        let mut scms = PseudonymManager::new();
        let a = scms.issue(LongTermId(1));
        let b = scms.issue(LongTermId(2));
        let c = scms.issue(LongTermId(1));
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(b, c);
        assert_eq!(scms.issued_count(), 3);
    }

    #[test]
    fn linkage_resolves_all_rotations() {
        let mut scms = PseudonymManager::new();
        let ps: Vec<VehicleId> = (0..5).map(|_| scms.issue(LongTermId(9))).collect();
        for p in &ps {
            assert_eq!(scms.resolve(*p), Some(LongTermId(9)));
        }
        assert_eq!(scms.pseudonyms_of(LongTermId(9)), ps);
    }

    #[test]
    fn an_exhausted_id_space_panics_instead_of_relinking_id_zero() {
        let mut scms = PseudonymManager::new();
        let first = scms.issue(LongTermId(1));
        assert_eq!(first, VehicleId(0));
        scms.next = u32::MAX;
        let issue =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| scms.issue(LongTermId(2))));
        assert!(
            issue.is_err(),
            "issued {issue:?} past the end of the id space"
        );
        assert_eq!(scms.resolve(first), Some(LongTermId(1)));
        assert!(scms.pseudonyms_of(LongTermId(2)).is_empty());
        assert_eq!(scms.issued_count(), 1);
    }

    #[test]
    fn unknown_pseudonym_unresolvable() {
        let scms = PseudonymManager::new();
        assert_eq!(scms.resolve(VehicleId(99)), None);
        assert!(scms.pseudonyms_of(LongTermId(1)).is_empty());
    }
}
