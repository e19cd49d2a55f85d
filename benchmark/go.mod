module github.com/splitbft/splitbft/benchmark

go 1.22

require github.com/splitbft/splitbft v0.0.0

replace github.com/splitbft/splitbft => ../
