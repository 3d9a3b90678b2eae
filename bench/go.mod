module github.com/tea-graph/tea/bench

go 1.22

require github.com/tea-graph/tea v0.0.0

replace github.com/tea-graph/tea => ../
