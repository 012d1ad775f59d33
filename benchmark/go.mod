module oddci/benchmark

go 1.22

require oddci v0.0.0

replace oddci => ../
