module fuzzyprophet/bench

go 1.24

require fuzzyprophet v0.0.0

replace fuzzyprophet => ../
