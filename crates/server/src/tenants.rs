//! Dense per-tenant state.
//!
//! Tenant ids are small dense integers everywhere in the tree (a
//! device's index; background load is one above the last), and the server
//! touches per-tenant state once per completion, rejection or admission
//! decision. A tenant-indexed vector makes each touch one bounds check
//! and one load instead of an ordered-map descent.

use crate::server::TenantId;

/// One `T` per tenant in a tenant-indexed vector, grown on demand.
///
/// Every tenant starts at `T::default()`, whether or not its slot has
/// been materialised yet, so growth is unobservable.
#[derive(Debug, Clone, Default)]
pub struct TenantTable<T> {
    slots: Vec<T>,
}

impl<T: Copy + Default> TenantTable<T> {
    /// The tenant's value (the default if it was never touched).
    pub(crate) fn get(&self, tenant: TenantId) -> T {
        self.slots
            .get(tenant.0 as usize)
            .copied()
            .unwrap_or_default()
    }

    /// Mutable access to the tenant's value, materialising every slot up
    /// to it.
    pub(crate) fn slot(&mut self, tenant: TenantId) -> &mut T {
        let i = tenant.0 as usize;
        if i >= self.slots.len() {
            self.slots.resize(i + 1, T::default());
        }
        &mut self.slots[i]
    }

    /// Every materialised slot in ascending tenant order (which keeps
    /// anything serialised from it reproducible). Tenants below the
    /// highest one touched appear even if untouched themselves, holding
    /// the default.
    pub fn iter(&self) -> impl Iterator<Item = (TenantId, T)> + '_ {
        self.slots
            .iter()
            .enumerate()
            .map(|(i, &v)| (TenantId(i as u32), v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn untouched_tenants_read_as_the_default() {
        let mut t: TenantTable<u64> = TenantTable::default();
        assert_eq!(t.get(TenantId(1000)), 0);
        *t.slot(TenantId(3)) += 1;
        assert_eq!(t.get(TenantId(3)), 1);
        assert_eq!(t.get(TenantId(2)), 0, "materialised by growth, untouched");
        assert_eq!(t.get(TenantId(4)), 0, "beyond the materialised range");
    }

    #[test]
    fn iteration_is_in_ascending_tenant_order() {
        let mut t: TenantTable<u64> = TenantTable::default();
        *t.slot(TenantId(2)) += 5;
        *t.slot(TenantId(0)) += 1;
        let seen: Vec<(TenantId, u64)> = t.iter().collect();
        assert_eq!(
            seen,
            vec![(TenantId(0), 1), (TenantId(1), 0), (TenantId(2), 5)]
        );
    }
}
