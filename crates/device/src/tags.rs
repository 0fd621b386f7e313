//! The one `u64` tag space shared by every transport.
//!
//! A tag travels with each request through a link, a server queue, and a
//! response path, and is the only way the device-side bookkeeping can
//! recognize what came back. Three populations share the space:
//!
//! - **Frames** — the packed fleet layout below, always
//!   `< BACKGROUND_TAG_BASE`. A single-device host's plain sequence
//!   numbers (the live and replayed runtimes) are exactly device 0's
//!   packed tags, which is why a one-device fleet — the experiment — and
//!   a lone `DeviceRuntime` tag frames alike;
//! - **Background requests** — `BACKGROUND_TAG_BASE + seq` (sim only);
//! - **Probes** — heartbeat frames at `>= PROBE_TAG_BASE`.
//!
//! The fleet additionally packs a device index into its frame tags:
//! bits 35..0 carry the per-device sequence, bits 56..36 the device
//! index (21 bits — room for the two-million-device tier of the sharded
//! engine benchmark), and probe tags set the [`PROBE_TAG_BASE`] bit on
//! top of the same layout. Because the packed frame part tops out at
//! bit 56, fleet frame tags can never wander into the background
//! (bit 61) or probe (bit 62) ranges — a property
//! `fleet_tags_never_alias_reserved_ranges` pins below. Historically
//! `fleet.rs` kept a private copy of this layout; this module is now
//! the single definition.

/// First tag of the heartbeat-probe range. Also used as the probe *bit*
/// in the fleet layout, so `is_probe_tag` gives one answer for both
/// single-device and fleet tags.
pub(crate) const PROBE_TAG_BASE: u64 = 1 << 62;

/// First tag of the background-tenant range (sim only).
pub(crate) use ff_server::BACKGROUND_TAG_BASE;

/// Whether a tag belongs to the heartbeat-probe range (either layout).
pub(crate) fn is_probe_tag(tag: u64) -> bool {
    tag >= PROBE_TAG_BASE
}

/// Whether a tag belongs to the background-tenant range.
pub(crate) fn is_background_tag(tag: u64) -> bool {
    (BACKGROUND_TAG_BASE..PROBE_TAG_BASE).contains(&tag)
}

/// Bit position of the fleet device index within a packed tag.
pub(crate) const FLEET_DEV_SHIFT: u32 = 36;

/// Mask of the per-device sequence field in a packed fleet tag
/// (36 bits — a device would need 72 years at 30 fps to overflow it).
pub(crate) const FLEET_SEQ_MASK: u64 = (1 << FLEET_DEV_SHIFT) - 1;

/// Exclusive upper bound on the fleet device index (21 bits).
pub(crate) const FLEET_MAX_DEVICES: usize = 1 << 21;

// The packed frame layout must stay strictly below the reserved ranges;
// if anyone widens a field, this fails the build rather than aliasing.
const WIDEST_FLEET_FRAME_TAG: u64 =
    (((FLEET_MAX_DEVICES - 1) as u64) << FLEET_DEV_SHIFT) + FLEET_SEQ_MASK;
const _: () = assert!(
    WIDEST_FLEET_FRAME_TAG < BACKGROUND_TAG_BASE,
    "fleet frame tags must not reach the background/probe ranges"
);

/// Pack a fleet tag from a device index and per-device sequence number.
pub(crate) fn fleet_tag(dev: usize, seq: u64, probe: bool) -> u64 {
    assert!(dev < FLEET_MAX_DEVICES, "device index too large");
    assert!(seq <= FLEET_SEQ_MASK, "sequence overflow");
    (if probe { PROBE_TAG_BASE } else { 0 }) | ((dev as u64) << FLEET_DEV_SHIFT) | seq
}

/// The device index packed into a fleet tag.
pub(crate) fn fleet_tag_device(tag: u64) -> usize {
    ((tag & !PROBE_TAG_BASE) >> FLEET_DEV_SHIFT) as usize
}

/// The per-device sequence number packed into a fleet tag.
pub(crate) fn fleet_tag_seq(tag: u64) -> u64 {
    tag & FLEET_SEQ_MASK
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_all_fields() {
        let t = fleet_tag(7, 123_456, false);
        assert_eq!(fleet_tag_device(t), 7);
        assert_eq!(fleet_tag_seq(t), 123_456);
        assert!(!is_probe_tag(t));
        let p = fleet_tag(65_000, 1, true);
        assert_eq!(fleet_tag_device(p), 65_000);
        assert_eq!(fleet_tag_seq(p), 1);
        assert!(is_probe_tag(p));
    }

    #[test]
    fn fleet_tags_never_alias_reserved_ranges() {
        // The widest possible frame tag stays below the background range,
        // so a fleet frame can never be mistaken for a background request
        // or a probe by any consumer of the shared constants.
        let widest = fleet_tag(FLEET_MAX_DEVICES - 1, FLEET_SEQ_MASK, false);
        assert!(widest < BACKGROUND_TAG_BASE);
        assert!(!is_probe_tag(widest));
        // And the widest probe tag keeps its probe bit recognizable while
        // still round-tripping the device index.
        let widest_probe = fleet_tag(FLEET_MAX_DEVICES - 1, FLEET_SEQ_MASK, true);
        assert!(is_probe_tag(widest_probe));
        assert_eq!(fleet_tag_device(widest_probe), FLEET_MAX_DEVICES - 1);
        // The probe bit is exactly the shared PROBE_TAG_BASE — one flag,
        // not two competing definitions (the historical bug).
        assert_eq!(widest_probe & PROBE_TAG_BASE, PROBE_TAG_BASE);
    }

    #[test]
    fn single_device_probe_tags_are_probe_in_the_fleet_view_too() {
        // Runtime probes are PROBE_TAG_BASE + seq; the unified predicate
        // classifies them identically.
        assert!(is_probe_tag(PROBE_TAG_BASE));
        assert!(is_probe_tag(PROBE_TAG_BASE + 42));
        assert!(!is_probe_tag(BACKGROUND_TAG_BASE));
        assert!(!is_probe_tag(0));
    }

    #[test]
    #[should_panic(expected = "device index too large")]
    fn oversized_device_index_is_rejected() {
        fleet_tag(FLEET_MAX_DEVICES, 0, false);
    }

    #[test]
    #[should_panic(expected = "sequence overflow")]
    fn oversized_sequence_is_rejected() {
        fleet_tag(0, FLEET_SEQ_MASK + 1, false);
    }
}
