//! Satellite 4: pins the memory footprint of every per-line state
//! struct and the cells built from them.
//!
//! These sizes determine the `LineStore` arena's per-line cost (and the
//! simulator's resident-bytes gauge). Growing one is an intentional,
//! reviewed decision — update the pinned value here together with the
//! change, never casually.

use core::mem::size_of;

use deuce_crypto::{LineAddr, OtpEngine, SecretKey};
use deuce_schemes::{
    AnyScheme, AnyState, BleDeuceState, BleState, CtrState, DeuceFnwState, DeuceLine, DeuceState,
    DynDeuceState, EncryptedDcwLine, EncryptedFnwState, FilePageBackend, FnwState, LineScheme,
    LineStore, PageBackend, PageHeader, SchemeConfig, SchemeKind, SchemeLine, StateCodec,
    SLOTS_PER_PAGE,
};

#[test]
fn per_line_states_stay_compact() {
    assert_eq!(size_of::<CtrState>(), 8, "CtrState is one raw counter word");
    assert_eq!(size_of::<FnwState>(), 8, "FnwState is one flip-bit word");
    assert_eq!(size_of::<EncryptedFnwState>(), 16, "counter + flip bits");
    assert_eq!(size_of::<DeuceState>(), 16, "counter + modified bits");
    assert_eq!(size_of::<DynDeuceState>(), 16, "counter + meta word");
    assert_eq!(size_of::<DeuceFnwState>(), 16, "counter + meta word");
    assert_eq!(size_of::<BleState>(), 32, "four per-block counters");
    assert_eq!(size_of::<BleDeuceState>(), 40, "four counters + modified bits");
    assert_eq!(
        size_of::<AnyState>(),
        48,
        "discriminant + largest variant (BleDeuceState)"
    );
}

#[test]
fn cell_and_dispatch_sizes_stay_pinned() {
    assert_eq!(size_of::<AnyScheme>(), 32, "runtime scheme descriptor");
    assert_eq!(size_of::<SchemeLine>(), 152, "dyn cell: descriptor + addr + 64B + AnyState");
    assert_eq!(size_of::<DeuceLine>(), 104, "mono cell: params + addr + 64B + DeuceState");
    assert_eq!(size_of::<EncryptedDcwLine>(), 88, "mono cell: params + addr + 64B + 8B state");
}

/// The arena's per-line accounting must agree with the actual component
/// sizes: one stored image plus the compact state, and no plaintext,
/// for every runtime-selected kind.
#[test]
fn line_store_per_line_bytes_match_components() {
    for kind in SchemeKind::ALL {
        let store = LineStore::new(AnyScheme::from_config(&SchemeConfig::new(kind)));
        assert_eq!(store.per_line_bytes(), 64 + size_of::<AnyState>() as u64, "{kind}");
        assert_eq!(store.per_line_bytes(), 112, "{kind}");
    }
}

/// The on-disk page-file layout is a compatibility contract: the file
/// header, the slots-per-page geometry, and every state codec's encoded
/// width are pinned here. Changing one breaks existing page files —
/// bump [`PageHeader::VERSION`] together with the change.
#[test]
fn page_file_layout_stays_pinned() {
    assert_eq!(PageHeader::BYTES, 32, "file header is one fixed 32-byte block");
    assert_eq!(SLOTS_PER_PAGE, 64, "presence bitmap is one u64");
    assert_eq!(<() as StateCodec>::ENCODED_BYTES, 0);
    assert_eq!(CtrState::ENCODED_BYTES, 8);
    assert_eq!(FnwState::ENCODED_BYTES, 8);
    assert_eq!(EncryptedFnwState::ENCODED_BYTES, 16);
    assert_eq!(DeuceState::ENCODED_BYTES, 16);
    assert_eq!(DynDeuceState::ENCODED_BYTES, 16);
    assert_eq!(DeuceFnwState::ENCODED_BYTES, 16);
    assert_eq!(BleState::ENCODED_BYTES, 32);
    assert_eq!(BleDeuceState::ENCODED_BYTES, 40);
    assert_eq!(AnyState::ENCODED_BYTES, 41, "1 tag byte + largest payload");
    assert_eq!(PageHeader::VERSION, 3, "version 3 dropped the plaintext shadow segment");

    // The header a DEUCE page file really opens with, and the record
    // size it implies: presence word, 64 x (64B stored + 41B state),
    // trailing checksum.
    let scheme = AnyScheme::from_config(&SchemeConfig::new(SchemeKind::Deuce));
    let path = std::env::temp_dir()
        .join(format!("deuce-state-sizes-layout-{}.pages", std::process::id()));
    let backend = FilePageBackend::<AnyScheme>::create(&path, 1, blank(scheme))
        .expect("create page file");
    drop(backend);
    let file = std::fs::read(&path).expect("read page file");
    std::fs::remove_file(&path).ok();
    let header = PageHeader::decode(file[..PageHeader::BYTES].try_into().expect("32-byte header"));
    assert_eq!(header.version, PageHeader::VERSION);
    assert_eq!(header.record_bytes(), 6_736, "8 + 64 x (64 + 41) + 8");
    assert_eq!(file[16..PageHeader::BYTES], [0u8; 16], "reserved header bytes are zero");
}

/// The scheme's state for a zero line: a page file's blank state.
fn blank(scheme: AnyScheme) -> AnyState {
    let engine = OtpEngine::new(&SecretKey::from_seed(1));
    scheme.init(&engine, LineAddr::new(0), &[0u8; 64]).1
}

/// Both backends must account residency identically: per-line bytes are
/// a property of the scheme (RAM footprint), not of where the slots
/// live, so the resident-bytes gauge is comparable across backends.
#[test]
fn backends_agree_on_per_line_bytes() {
    let dir = std::env::temp_dir();
    for kind in SchemeKind::ALL {
        let scheme = AnyScheme::from_config(&SchemeConfig::new(kind));
        let arena = LineStore::new(scheme);
        let path = dir.join(format!("deuce-state-sizes-{kind}-{}.pages", std::process::id()));
        let backend = FilePageBackend::<AnyScheme>::create(&path, 2, blank(scheme))
            .expect("create page file");
        assert_eq!(
            PageBackend::<AnyScheme>::per_line_bytes(&backend),
            arena.per_line_bytes(),
            "{kind}"
        );
        drop(backend);
        std::fs::remove_file(&path).ok();
    }
}
