module corec/bench

go 1.22

require corec v0.0.0

replace corec => ../
