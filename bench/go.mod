module hastm.dev/hastm/bench

go 1.22

require hastm.dev/hastm v0.0.0

replace hastm.dev/hastm => ../
