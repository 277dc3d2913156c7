module bilsh/bench

go 1.22

require bilsh v0.0.0

replace bilsh => ../
