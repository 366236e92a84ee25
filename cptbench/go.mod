module cptgpt/cptbench

go 1.22

require cptgpt v0.0.0

replace cptgpt => ../
