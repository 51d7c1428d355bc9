// Lint fixture: a test attribute on a struct field or an enum variant ends
// with that field or variant; the fn after each is library code again.

use std::collections::BTreeMap;

pub struct Stats {
    pub total: u64,
    #[cfg(test)]
    pub probe: u64,
}

pub fn after_field(m: &BTreeMap<u32, u32>) -> u32 {
    let seen: std::collections::HashMap<u32, u32> = Default::default();
    *m.get(&1).unwrap() + seen.len() as u32
}

pub enum Mode {
    Live,
    #[cfg(test)]
    Probe,
}

pub fn after_variant(x: Option<u32>) -> u32 {
    let seen: std::collections::HashMap<u32, u32> = Default::default();
    x.unwrap() + seen.len() as u32
}

pub struct Tail {
    pub total: u64,
    #[cfg(test)]
    pub probe: u64
}

pub fn after_last_field(x: Option<u32>) -> u32 {
    let seen: std::collections::HashMap<u32, u32> = Default::default();
    x.unwrap() + seen.len() as u32
}
