// Lint fixture: item-level code outside any fn body (static initializers).

use std::sync::LazyLock;
use std::time::Instant;

static LIMIT: LazyLock<u32> = LazyLock::new(|| "64".parse().unwrap());

static STARTED: LazyLock<Instant> = LazyLock::new(|| Instant::now());

static TABLE: LazyLock<std::collections::HashMap<u32, u32>> = LazyLock::new(Default::default);

// The `,` inside `HashMap<u32, u32>` does not end the test item.
#[cfg(test)]
static PROBE: LazyLock<std::collections::HashMap<u32, u32>> =
    LazyLock::new(|| std::collections::HashMap::from([(1, Instant::now().elapsed().as_secs() as u32)]));

pub fn limit() -> u32 {
    *LIMIT
}
