module remos/bench

go 1.22

require remos v0.0.0

replace remos => ../
