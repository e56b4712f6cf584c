// The benchmark is a module of its own so that the repository's build and
// tier-1 tests never depend on it. Its path sits under the root module's, so
// it may import dpurpc/internal/...
module dpurpc/bench

go 1.22

require dpurpc v0.0.0

replace dpurpc => ../
