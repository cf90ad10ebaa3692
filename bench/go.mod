module abacus/bench

go 1.23

require abacus v0.0.0

replace abacus => ../
