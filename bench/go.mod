// The benchmark is its own module so the repository's build and test
// commands never compile it; it reaches the simulator's internal packages
// because its import path sits under the root module's.
module github.com/severifast/severifast/bench

go 1.22

require github.com/severifast/severifast v0.0.0

replace github.com/severifast/severifast => ../
